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

/** Worse-outcome ordering for region aggregation. */
int
outcomeRank(SimOutcome o)
{
    switch (o) {
      case SimOutcome::Completed:
        return 0;
      case SimOutcome::CycleLimit:
        return 1;
      case SimOutcome::Watchdog:
        return 2;
      case SimOutcome::CheckerDivergence:
        return 3;
      case SimOutcome::Fault:
        return 4;
    }
    return 5;
}

/** Fold one region's result into the running aggregate. */
void
accumulate(RunResult &agg, RunResult &&r)
{
    if (outcomeRank(r.outcome) > outcomeRank(agg.outcome)) {
        agg.outcome = r.outcome;
        agg.diagnosis = r.diagnosis;
    }
    agg.faultsInjected += r.faultsInjected;
    if (agg.faultSummary.empty())
        agg.faultSummary = std::move(r.faultSummary);
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
    agg.wallWarmupSeconds += r.wallWarmupSeconds;
    agg.wallMeasureSeconds += r.wallMeasureSeconds;
    agg.detail.merge(r.detail);
    // Region series are concatenated; each region restarts index 0.
    agg.intervals.insert(agg.intervals.end(), r.intervals.begin(),
                         r.intervals.end());
    agg.checkedRetired += r.checkedRetired;
    if (r.checkDiverged && !agg.checkDiverged) {
        agg.checkDiverged = true;
        agg.checkReport = std::move(r.checkReport);
    }
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

/** Architectural snapshot a timing region starts from. */
struct Simulator::RegionStart
{
    Addr pc = invalidAddr;
    arch::RegFile regs;
    arch::MemoryImage mem;
    std::vector<arch::BranchWarmthRecord> warmth;
    std::vector<arch::MemWarmthRecord> memWarmth;
    std::vector<Addr> instWarmth;
};

RunResult
Simulator::run(const Workload &wl, const RunOptions &opts,
               bool with_slices)
{
    if (sampled(opts))
        return runSampled(wl, opts, with_slices);
    return runOne(wl, opts, with_slices, nullptr);
}

RunResult
Simulator::runOne(const Workload &wl, const RunOptions &opts,
                  bool with_slices, const RegionStart *region)
{
    SS_ASSERT(wl.entry != invalidAddr, "workload has no entry point");

    // Region runs execute on a clone of the sampling stream's state;
    // plain runs build a fresh image from the workload initializer.
    arch::MemoryImage mem;
    Addr entry = wl.entry;
    if (region) {
        mem = region->mem.clone();
        entry = region->pc;
    } else if (wl.initMemory) {
        wl.initMemory(mem);
    }

    MachineConfig cfg = cfg_;
    cfg.slicesEnabled = with_slices;

    // Each run gets its own checker instance (parallel JobPool sweeps
    // therefore get one per job): a fresh reference memory image built
    // by the same initializer the timing core's image got, stepping
    // from the same entry PC — or, for a region run, from the same
    // architectural snapshot.
    RunOptions run_opts = opts;
    if (region) {
        run_opts.initialRegs = &region->regs;
        run_opts.branchWarmth =
            region->warmth.empty() ? nullptr : &region->warmth;
        run_opts.memWarmth =
            region->memWarmth.empty() ? nullptr : &region->memWarmth;
        run_opts.instWarmth =
            region->instWarmth.empty() ? nullptr
                                       : &region->instWarmth;
    }
    std::unique_ptr<check::RetireChecker> checker;
    bool want_check = opts.check || checkForcedByEnv();

    // The check.* injection sites are the fault-registry spelling of
    // the two legacy checker knobs: corrupt the Nth observed register
    // writeback / store before comparison (@nN, one-shot semantics).
    std::uint64_t inject_reg = opts.checkInjectRegFault;
    std::uint64_t inject_store = opts.checkInjectStoreFault;
    for (const fault::FaultSpec &spec : opts.faults.specs) {
        if (spec.site == fault::Site::CheckReg)
            inject_reg = spec.period;
        else if (spec.site == fault::Site::CheckStore)
            inject_store = spec.period;
    }

#ifndef SS_CHECK_DISABLED
    if (want_check) {
        check::RetireChecker::Config ccfg;
        ccfg.panicOnDivergence = opts.checkFatal &&
                                 inject_reg == 0 && inject_store == 0;
        ccfg.injectRegFaultAt = inject_reg;
        ccfg.injectStoreFaultAt = inject_store;
        if (region)
            checker = std::make_unique<check::RetireChecker>(
                wl.program, region->pc, region->regs,
                region->mem.clone(), ccfg);
        else
            checker = std::make_unique<check::RetireChecker>(
                wl.program, wl.entry, wl.initMemory, ccfg);
        run_opts.checker = checker.get();
    }
#else
    if (want_check) {
        static const bool warned = [] {
            SS_WARN("retirement checking requested but this build has "
                    "SS_CHECK_DISABLED; running unchecked");
            return true;
        }();
        (void)warned;
    }
#endif

    core::SmtCore machine(cfg, wl.program, mem);
    if (with_slices) {
        for (const auto &s : wl.slices) {
            auto validation = slice::validateSlice(s, wl.program);
            if (!validation.ok())
                SS_FATAL("invalid slice '", s.name, "' in workload '",
                         wl.name, "':\n", validation.summary());
            machine.loadSlice(s);
        }
    }
    RunResult res = machine.run(entry, run_opts);

    if (checker) {
        res.checkedRetired = checker->checkedCount();
        res.checkDiverged = checker->diverged();
        if (checker->diverged()) {
            res.checkReport = checker->report();
            res.outcome = SimOutcome::CheckerDivergence;
            // panicOnDivergence aborts at the divergence point; ending
            // up here means the caller opted into latching (fault
            // injection or checkFatal=false) — still fail loudly when
            // a *real* run was supposed to be fatal.
            if (opts.checkFatal && inject_reg == 0 &&
                inject_store == 0)
                SS_FATAL("workload '", wl.name,
                         "' diverged from the architectural "
                         "reference:\n",
                         res.checkReport);
        }
    }
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
        ff.restore(*ckpt);  // fatal on program-fingerprint mismatch
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
        RegionStart rs;
        rs.pc = ff.pc();
        rs.regs = ff.regs();
        rs.mem = ff.mem().clone();
        if (opts.warmPredictors)
            rs.warmth = ff.warmth();
        if (opts.warmCaches)
            rs.memWarmth = ff.memWarmth();
        if (opts.warmInstCache)
            rs.instWarmth = ff.instWarmth();
        const std::uint64_t region_start_inst = ff.executed();
        const Cycle region_base =
            opts.events ? opts.events->timeBase() : 0;
        RunResult rr = runOne(wl, opts, with_slices, &rs);
        if (opts.events) {
            // One named span per sampled region, then advance the
            // buffer's time base so the next region's cycle-0
            // restart lands past this one on the merged timeline.
            opts.events->pushSpan(obs::EventKind::Region, region_base,
                                  rr.totalCycles, 0, rs.pc,
                                  region_start_inst, r);
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
