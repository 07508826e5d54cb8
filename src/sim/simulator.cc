#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "arch/fastfwd.hh"
#include "check/checker.hh"
#include "common/logging.hh"
#include "obs/events.hh"
#include "slice/validator.hh"

namespace specslice::sim
{

namespace
{

/** SS_CHECK=1 forces the retirement checker on for every run. */
bool
checkForcedByEnv()
{
    static const bool forced = [] {
        const char *v = std::getenv("SS_CHECK");
        return v && *v != '\0' && std::strcmp(v, "0") != 0;
    }();
    return forced;
}

/** Fold one region's result into the running aggregate. */
void
accumulate(RunResult &agg, RunResult &&r)
{
    if (isWorseOutcome(r.outcome, agg.outcome)) {
        agg.outcome = r.outcome;
        agg.diagnosis = r.diagnosis;
    }
    agg.cycles += r.cycles;
    agg.mainRetired += r.mainRetired;
    agg.mainFetched += r.mainFetched;
    agg.mainFetchedWrongPath += r.mainFetchedWrongPath;
    agg.sliceFetched += r.sliceFetched;
    agg.sliceRetired += r.sliceRetired;
    agg.condBranches += r.condBranches;
    agg.mispredictions += r.mispredictions;
    agg.loads += r.loads;
    agg.l1dMissesMain += r.l1dMissesMain;
    agg.coveredMisses += r.coveredMisses;
    agg.slicePrefetches += r.slicePrefetches;
    agg.forks += r.forks;
    agg.forksSquashed += r.forksSquashed;
    agg.forksIgnored += r.forksIgnored;
    agg.predictionsGenerated += r.predictionsGenerated;
    agg.correlatorUsed += r.correlatorUsed;
    agg.correlatorWrong += r.correlatorWrong;
    agg.latePredictions += r.latePredictions;
    agg.lateReversals += r.lateReversals;
    agg.totalCycles += r.totalCycles;
    agg.skippedCycles += r.skippedCycles;
    agg.wallWarmupSeconds += r.wallWarmupSeconds;
    agg.wallMeasureSeconds += r.wallMeasureSeconds;
    agg.detail.merge(r.detail);
    // Region series are concatenated; each region restarts index 0.
    agg.intervals.insert(agg.intervals.end(), r.intervals.begin(),
                         r.intervals.end());
    agg.checkedRetired += r.checkedRetired;
    for (const auto &[pc, c] : r.profile.perPc) {
        auto &dst = agg.profile.perPc[pc];
        dst.branchExec += c.branchExec;
        dst.branchMispred += c.branchMispred;
        dst.loadExec += c.loadExec;
        dst.loadMiss += c.loadMiss;
        dst.storeExec += c.storeExec;
        dst.storeMiss += c.storeMiss;
    }
}

} // namespace

RunResult
Simulator::run(const Workload &wl, const RunOptions &opts,
               bool with_slices)
{
    if (sampled(opts))
        return runSampled(wl, opts, with_slices);
    SS_ASSERT(wl.entry != invalidAddr, "workload has no entry point");
    arch::Checkpoint entry;
    entry.pc = wl.entry;
    if (wl.initMemory)
        wl.initMemory(entry.mem);
    return runOne(wl, opts, with_slices, entry);
}

RunResult
Simulator::runOne(const Workload &wl, const RunOptions &opts,
                  bool with_slices, arch::Checkpoint &start)
{
    // The core gets only its half of opts. Each run gets its own
    // checker instance (parallel JobPool sweeps therefore get one per
    // job), stepping from a copy of the same start. The core executes
    // at fetch and so writes its image ahead of retirement: the
    // checker's copy must be taken before the run.
    core::RunOptions run_opts = opts;
    run_opts.start = &start;
    std::unique_ptr<check::RetireChecker> checker;
    if (opts.check || checkForcedByEnv()) {
        checker = std::make_unique<check::RetireChecker>(
            wl.program, start.pc, start.regs, start.mem.clone());
        run_opts.checker = checker.get();
    }

    // The run takes start's image, so the image is freed when the run
    // ends, before a sampled caller advances to its next region.
    arch::MemoryImage mem = std::move(start.mem);
    core::SmtCore machine(cfg_, wl.program, mem);
    if (with_slices) {
        for (const auto &s : wl.slices) {
            auto validation = slice::validateSlice(s, wl.program);
            if (!validation.ok())
                SS_FATAL("invalid slice '", s.name, "' in workload '",
                         wl.name, "':\n", validation.summary());
            machine.loadSlice(s);
        }
    }
    RunResult res = machine.run(start.pc, run_opts);
    if (checker)
        res.checkedRetired = checker->checkedCount();
    return res;
}

RunResult
Simulator::runSampled(const Workload &wl, const RunOptions &opts,
                      bool with_slices)
{
    SS_ASSERT(wl.entry != invalidAddr, "workload has no entry point");

    const auto ff_wall_start = std::chrono::steady_clock::now();
    arch::FastForward ff(wl.program);
    ff.reset(wl.entry);
    if (!opts.restoreCheckpoint.empty()) {
        std::string err;
        auto ckpt = arch::loadCheckpointFile(opts.restoreCheckpoint,
                                             err);
        if (!ckpt)
            SS_FATAL("workload '", wl.name, "': ", err);
        ff.restore(std::move(*ckpt));  // fatal on fingerprint mismatch
        // The engine cannot run backwards: fast-forwarding to a point
        // before the checkpoint would silently measure a later region.
        if (opts.fastForwardInstructions != 0 &&
            ff.executed() > opts.fastForwardInstructions)
            SS_FATAL("workload '", wl.name, "': checkpoint '",
                     opts.restoreCheckpoint, "' is at instruction ",
                     ff.executed(), ", past the requested fast-forward "
                     "to ", opts.fastForwardInstructions,
                     "; fast-forward to 0 (start at the checkpoint) or "
                     "to at least ", ff.executed());
    } else if (wl.initMemory) {
        wl.initMemory(ff.mem());
    }

    // fastForwardInstructions is an absolute position from entry, so
    // restoring a checkpoint taken at that position makes this a
    // no-op and the two paths measure the identical region.
    ff.advanceTo(opts.fastForwardInstructions);
    if (!ff.runnable() &&
        ff.executed() < opts.fastForwardInstructions)
        SS_WARN("workload '", wl.name, "': fast-forward ended at ",
                ff.executed(), " of ", opts.fastForwardInstructions,
                " instructions (", arch::ffStopName(ff.lastStop()),
                "); sampling from the stop point");

    if (!opts.saveCheckpoint.empty()) {
        std::string err;
        if (!arch::saveCheckpointFile(ff.makeCheckpoint(),
                                      opts.saveCheckpoint, err))
            SS_FATAL("workload '", wl.name, "': ", err);
    }

    const unsigned regions = std::max(1u, opts.sampleRegions);
    const std::uint64_t per_region =
        opts.warmupInstructions + opts.maxMainInstructions;
    const std::uint64_t stride =
        opts.sampleStride ? opts.sampleStride : per_region;
    const std::uint64_t ff_base = ff.executed();

    RunResult agg;
    agg.wallFastForwardSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - ff_wall_start)
            .count();
    unsigned ran = 0;
    for (unsigned r = 0; r < regions; ++r) {
        arch::Checkpoint start = ff.makeCheckpoint();
        const Cycle region_base =
            opts.events ? opts.events->timeBase() : 0;
        RunResult rr = runOne(wl, opts, with_slices, start);
        if (opts.events) {
            // One named span per sampled region, then advance the
            // buffer's time base so the next region's cycle-0
            // restart lands past this one on the merged timeline.
            opts.events->pushSpan(obs::EventKind::Region, region_base,
                                  rr.totalCycles, 0, start.pc,
                                  start.instCount, r);
            opts.events->setTimeBase(region_base + rr.totalCycles +
                                     1);
        }
        accumulate(agg, std::move(rr));
        ++ran;
        if (r + 1 < regions) {
            ff.advance(stride);
            if (!ff.runnable()) {
                SS_WARN("workload '", wl.name,
                        "': sampling stream ended (",
                        arch::ffStopName(ff.lastStop()), ") after ",
                        ran, " of ", regions,
                        " regions; aggregating what ran");
                break;
            }
        }
    }
    agg.fastForwarded = ff_base;
    agg.sampledRegions = ran;
    return agg;
}

double
speedupPct(const RunResult &base, const RunResult &other)
{
    // No cycles means no data, not zero speedup: return NaN and let
    // Table::fmt print "n/a" (the StatGroup::ratio convention).
    if (other.cycles == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return 100.0 * (static_cast<double>(base.cycles) /
                        static_cast<double>(other.cycles) -
                    1.0);
}

} // namespace specslice::sim
