#include "core/smt_core.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "check/checker.hh"
#include "common/logging.hh"

namespace specslice::core
{

const char *
outcomeName(SimOutcome outcome)
{
    switch (outcome) {
      case SimOutcome::Completed:
        return "completed";
      case SimOutcome::CycleLimit:
        return "cycle_limit";
      case SimOutcome::Watchdog:
        return "watchdog";
    }
    return "unknown";
}

bool
isWorseOutcome(SimOutcome a, SimOutcome b)
{
    return static_cast<int>(a) > static_cast<int>(b);
}

namespace
{

/** Warm-up plus measured instructions. A budget past 2^64 is a caller
 *  error: wrapping would end the run after a handful of
 *  instructions and report it complete. */
std::uint64_t
instructionBudget(std::uint64_t max_main_instructions,
                  std::uint64_t warmup_instructions)
{
    std::uint64_t budget = 0;
    if (__builtin_add_overflow(max_main_instructions,
                               warmup_instructions, &budget))
        SS_FATAL("instruction budget overflows 64 bits: ",
                 max_main_instructions, " measured + ",
                 warmup_instructions, " warm-up instructions");
    return budget;
}

} // namespace

Cycle
defaultCycleLimit(std::uint64_t max_main_instructions,
                  std::uint64_t warmup_instructions)
{
    const std::uint64_t budget =
        instructionBudget(max_main_instructions, warmup_instructions);
    // Slack scales with the total budget (warm-up included) so a run
    // with a large warm-up gets proportionally as much headroom as one
    // with a large measured region; the floor keeps small smoke runs
    // from a uselessly tight limit.
    const Cycle slack = std::max<Cycle>(100'000, budget / 4);
    Cycle limit = 0;
    if (__builtin_mul_overflow(budget, Cycle{50}, &limit) ||
        __builtin_add_overflow(limit, slack, &limit))
        SS_FATAL("the default cycle limit for ", budget,
                 " instructions overflows 64 bits; set maxCycles");
    return limit;
}

SmtCore::Handles::Handles(StatGroup &g)
    : fetchWindowStalls(g.scalar("fetch_window_stalls")),
      icacheStallCycles(g.scalar("icache_stall_cycles")),
      indirectFetchStalls(g.scalar("indirect_fetch_stalls")),
      sliceFaults(g.scalar("slice_faults")),
      sliceFetched(g.scalar("slice_fetched")),
      mainFetched(g.scalar("main_fetched")),
      mainFetchedWrongpath(g.scalar("main_fetched_wrongpath")),
      forksGated(g.scalar("forks_gated")),
      forksIgnored(g.scalar("forks_ignored")),
      forks(g.scalar("forks")),
      sliceLoadsForkAdjusted(g.scalar("slice_loads_fork_adjusted")),
      mainStores(g.scalar("main_stores")),
      mainStoreMisses(g.scalar("main_store_misses")),
      slicePrefetches(g.scalar("slice_prefetches")),
      mainLoads(g.scalar("main_loads")),
      mainLoadMisses(g.scalar("main_load_misses")),
      mainCoveredMisses(g.scalar("main_covered_misses")),
      condBranches(g.scalar("cond_branches")),
      mispredictions(g.scalar("mispredictions")),
      correlatorUsed(g.scalar("correlator_used")),
      correlatorWrong(g.scalar("correlator_wrong")),
      indirectBranches(g.scalar("indirect_branches")),
      indirectMispredictions(g.scalar("indirect_mispredictions")),
      returns(g.scalar("returns")),
      returnMispredictions(g.scalar("return_mispredictions")),
      sliceLocalSquashes(g.scalar("slice_local_squashes")),
      forksSquashed(g.scalar("forks_squashed")),
      sliceSquashedInsts(g.scalar("slice_squashed_insts")),
      mainSquashedInsts(g.scalar("main_squashed_insts")),
      lateAgreements(g.scalar("late_agreements")),
      lateReversals(g.scalar("late_reversals")),
      retireWbStalls(g.scalar("retire_wb_stalls")),
      sliceRetired(g.scalar("slice_retired")),
      slicesTerminatedDead(g.scalar("slices_terminated_dead")),
      slicesCompleted(g.scalar("slices_completed"))
{
}

SmtCore::SmtCore(const CoreConfig &cfg, const isa::Program &program,
                 arch::MemoryImage &mem)
    : cfg_(cfg),
      program_(program),
      mem_(mem),
      hierarchy_(cfg.memory),
      bpu_(cfg.predictor),
      sliceTable_(cfg.sliceTable),
      correlator_(cfg.correlator),
      stats_("core"),
      s_(stats_)
{
    if (cfg.numThreads < 1 || cfg.numThreads > maxThreads)
        SS_FATAL("numThreads ", cfg.numThreads, " out of range (valid: 1..",
                 maxThreads, ")");
    threads_.resize(cfg.numThreads);
}

void
SmtCore::loadSlice(const slice::SliceDescriptor &desc)
{
    sliceTable_.load(desc);
}

DynInst *
SmtCore::inst(SeqNum seq)
{
    return inFlight_.find(seq);
}

Cycle
SmtCore::nextCoreEvent() const
{
    Cycle next = readyWakeAt_;
    if (!completions_.empty())
        next = std::min(next, completions_.top().first);
    for (const ThreadCtx &t : threads_) {
        if (!t.active || t.fetchEnded)
            continue;
        if (t.fetchStallUntil > cycle_)
            next = std::min(next, t.fetchStallUntil);
    }
    return next;
}

SeqNum
SmtCore::oldestInFlight() const
{
    SeqNum oldest = nextSeq_;
    for (const ThreadCtx &t : threads_) {
        if (t.active && !t.rob.empty())
            oldest = std::min(oldest, t.rob.front());
    }
    return oldest;
}

void
SmtCore::resetStats()
{
    stats_.reset();
    hierarchy_.stats().reset();
    correlator_.stats().reset();
    // Non-profiling runs never touch the per-PC map (all writers are
    // gated on profileEnabled_), so skip it entirely here too.
    if (profileEnabled_)
        profile_.perPc.clear();
}

void
SmtCore::restartIntervals(IntervalState &st, Cycle interval_cycles)
{
    st.core = stats_.snapshot();
    st.mem = hierarchy_.stats().snapshot();
    st.corr = correlator_.stats().snapshot();
    st.retiredBase = mainRetired_;
    st.windowStart = cycle_;
    st.nextBoundary = cycle_ + interval_cycles;
    st.index = 0;
}

void
SmtCore::captureInterval(IntervalState &st, Cycle interval_cycles,
                         std::vector<obs::IntervalRecord> &out)
{
    StatGroup::Snapshot dc = stats_.snapshotDelta(st.core);
    StatGroup::Snapshot dm = hierarchy_.stats().snapshotDelta(st.mem);
    StatGroup::Snapshot dk =
        correlator_.stats().snapshotDelta(st.corr);

    obs::IntervalRecord rec;
    rec.index = st.index++;
    rec.startCycle = st.windowStart;
    rec.endCycle = cycle_;
    rec.retired = mainRetired_ - st.retiredBase;
    rec.loads = dc["main_loads"];
    rec.l1dMisses = dc["main_load_misses"];
    rec.l2Misses = dm["l2_misses"];
    rec.condBranches = dc["cond_branches"];
    rec.mispredictions = dc["mispredictions"];
    rec.forks = dc["forks"];
    rec.predsGenerated = dk["predictions_generated"];
    rec.predsBound = dk["matches_full"] + dk["matches_late"];
    rec.predsUsed = dc["correlator_used"];
    rec.predsKilled = dk["kills_loop"] + dk["kills_slice"] +
                      dk["kills_applied_from_debt"];
    out.push_back(rec);

    st.retiredBase = mainRetired_;
    st.windowStart = cycle_;
    st.nextBoundary = cycle_ + interval_cycles;
}

RunResult
SmtCore::run(Addr entry_pc, const RunOptions &opts)
{
    perfect_ = opts.perfect;
    profileEnabled_ = opts.profile;
    events_ = opts.events;
    checker_ = opts.checker;
    correlator_.setEventSink(events_);
    if (profileEnabled_) {
        // One bucket per static instruction avoids rehash-and-move
        // churn as the profile fills in.
        profile_.perPc.reserve(program_.staticSize());
    }

    ThreadCtx &main = threads_[0];
    main.active = true;
    main.isSlice = false;
    main.fetchPc = entry_pc;
    main.funcPc = entry_pc;
    // A mid-program (checkpointed/sampled) start injects the
    // snapshot's architectural registers and replays its warmth logs
    // so the front end and caches don't start artificially cold.
    if (const arch::Checkpoint *start = opts.start) {
        main.regs = start->regs;
        for (const arch::BranchWarmthRecord &w : start->warmth) {
            if (w.kind == arch::WarmthKind::CondBranch)
                bpu_.warmCond(w.pc, w.taken);
            else
                bpu_.warmIndirect(w.pc, w.target);
        }
        for (const arch::MemWarmthRecord &m : start->memWarmth)
            hierarchy_.warmData(m.addr, m.isStore);
        for (Addr pc : start->instWarmth)
            hierarchy_.warmInst(pc);
    }

    const std::uint64_t budget = instructionBudget(
        opts.maxMainInstructions, opts.warmupInstructions);
    Cycle max_cycles =
        opts.maxCycles ? opts.maxCycles
                       : defaultCycleLimit(opts.maxMainInstructions,
                                           opts.warmupInstructions);

    bool warm = opts.warmupInstructions == 0;
    Cycle measure_start = 0;
    std::uint64_t measured_base = 0;

    // Wall-clock phase split (observability only, not serialized):
    // two clock reads per run plus one at the warm-up boundary.
    const auto wall_start = std::chrono::steady_clock::now();
    auto wall_boundary = wall_start;

    const Cycle iv_cycles = opts.intervalCycles;
    IntervalState iv;
    // When the caller provides a sink, accumulate directly into it so
    // the caller keeps the partial windows if the run throws.
    std::vector<obs::IntervalRecord> local_intervals;
    std::vector<obs::IntervalRecord> &intervals =
        opts.intervalSink ? *opts.intervalSink : local_intervals;
    intervals.clear();
    if (iv_cycles)
        restartIntervals(iv, iv_cycles);

    const Cycle watchdog = opts.watchdogCycles;
    Cycle last_progress = cycle_;
    std::uint64_t last_retired = mainRetired_;

    SimOutcome outcome = SimOutcome::Completed;
    std::string diagnosis;
    Cycle skipped = 0;

    // Event-driven: a quiet cycle (no stage set cycleActive_) changes
    // nothing the next cycle reads, so every cycle up to the next
    // scheduled event is quiet in the same way and cycle_ jumps over
    // them. fetch_window_stalls is the only counter a quiet cycle
    // moves; it is added in bulk. intervalCycles = 1 makes every
    // cycle an event, i.e. steps cycle by cycle.
    while (cycle_ < max_cycles) {
        ++cycle_;
        if (events_)
            events_->setNow(cycle_);
        cycleActive_ = false;
        const std::uint64_t stalls_before = s_.fetchWindowStalls;
        hierarchy_.tick(cycle_);
        completeStage();
        issueStage();
        fetchStage();
        retireStage();
        const std::uint64_t quiet_stalls =
            s_.fetchWindowStalls - stalls_before;

        if (mainRetired_ != last_retired) {
            last_retired = mainRetired_;
            last_progress = cycle_;
        } else if (watchdog && cycle_ - last_progress >= watchdog) {
            diagnosis = diagnoseStall(cycle_ - last_progress);
            SS_WARN(diagnosis);
            outcome = SimOutcome::Watchdog;
            break;
        }
        if (!warm && mainRetired_ >= opts.warmupInstructions) {
            warm = true;
            resetStats();
            measure_start = cycle_;
            measured_base = mainRetired_;
            wall_boundary = std::chrono::steady_clock::now();
            // The time-series covers the measured region only:
            // discard warm-up windows and restart at the boundary so
            // window deltas sum to the final (post-reset) counters.
            if (iv_cycles) {
                intervals.clear();
                restartIntervals(iv, iv_cycles);
            }
        }
        if (iv_cycles && cycle_ >= iv.nextBoundary)
            captureInterval(iv, iv_cycles, intervals);
        if (mainRetired_ >= budget)
            break;
        if (mainHalted_ && threads_[0].rob.empty())
            break;

        if (cycleActive_)
            continue;
        Cycle next = std::min(nextCoreEvent(), max_cycles);
        if (watchdog)
            next = std::min(next, last_progress + watchdog);
        if (iv_cycles)
            next = std::min(next, iv.nextBoundary);
        if (next > cycle_ + 1) {
            const Cycle n = next - 1 - cycle_;
            s_.fetchWindowStalls += quiet_stalls * n;
            skipped += n;
            cycle_ = next - 1;
        }
    }

    // Close the final (possibly partial) window.
    if (iv_cycles && cycle_ > iv.windowStart)
        captureInterval(iv, iv_cycles, intervals);
    if (events_)
        correlator_.drainEvents();

    // A run that stopped at the hard cycle limit with its budget unmet
    // and the program still running was truncated, not completed.
    if (outcome == SimOutcome::Completed && cycle_ >= max_cycles &&
        mainRetired_ < budget &&
        !(mainHalted_ && threads_[0].rob.empty()))
        outcome = SimOutcome::CycleLimit;

    RunResult res;
    res.outcome = outcome;
    res.diagnosis = std::move(diagnosis);
    if (opts.intervalSink)
        res.intervals = *opts.intervalSink;
    else
        res.intervals = std::move(local_intervals);
    res.cycles = cycle_ - measure_start;
    res.totalCycles = cycle_;
    res.skippedCycles = skipped;
    {
        const auto wall_end = std::chrono::steady_clock::now();
        std::chrono::duration<double> wu = wall_boundary - wall_start;
        std::chrono::duration<double> me = wall_end - wall_boundary;
        res.wallWarmupSeconds = wu.count();
        res.wallMeasureSeconds = me.count();
    }
    res.mainRetired = mainRetired_ - measured_base;
    res.mainFetched = s_.mainFetched;
    res.mainFetchedWrongPath = s_.mainFetchedWrongpath;
    res.sliceFetched = s_.sliceFetched;
    res.sliceRetired = s_.sliceRetired;
    res.condBranches = s_.condBranches;
    res.mispredictions = s_.mispredictions;
    res.loads = s_.mainLoads;
    res.l1dMissesMain = s_.mainLoadMisses;
    res.coveredMisses = hierarchy_.stats().get("covered_misses");
    res.slicePrefetches = s_.slicePrefetches;
    res.forks = s_.forks;
    res.forksSquashed = s_.forksSquashed;
    res.forksIgnored = s_.forksIgnored;
    res.predictionsGenerated =
        correlator_.stats().get("predictions_generated");
    res.correlatorUsed = s_.correlatorUsed;
    res.correlatorWrong = s_.correlatorWrong;
    res.latePredictions = correlator_.stats().get("matches_late");
    res.lateReversals = s_.lateReversals;
    res.detail.merge(stats_);
    res.detail.merge(hierarchy_.stats());
    res.detail.merge(correlator_.stats());
    res.detail.merge(bpu_.stats());
    if (profileEnabled_)
        res.profile = std::move(profile_);
    return res;
}

void
SmtCore::setupDependencies(DynInst &di, ThreadCtx &t)
{
    const isa::OpTraits &tr = di.si->traits();
    RegIndex srcs[3];
    unsigned n = 0;
    if (tr.readsRa)
        srcs[n++] = di.si->ra;
    if (tr.readsRb)
        srcs[n++] = di.si->rb;
    if (tr.readsRc)
        srcs[n++] = di.si->rc;

    for (unsigned i = 0; i < n; ++i) {
        RegIndex r = srcs[i];
        if (r == isa::regZero)
            continue;
        SeqNum w = t.lastWriter[r];
        if (w == invalidSeqNum)
            continue;
        DynInst *p = inst(w);
        if (p && !p->completed) {
            ++di.pendingSrcs;
            p->dependents.push_back(di.seq);
        }
    }

    if (tr.writesRc && di.si->rc != isa::regZero) {
        di.prevWriter = t.lastWriter[di.si->rc];
        di.setsLastWriter = true;
        t.lastWriter[di.si->rc] = di.seq;
    }
}

void
SmtCore::wakeupDependents(DynInst &di)
{
    for (SeqNum dep : di.dependents) {
        DynInst *d = inst(dep);
        if (!d || d->wrongPath)
            continue;
        SS_ASSERT(d->pendingSrcs > 0, "wakeup underflow");
        if (--d->pendingSrcs == 0 && !d->issued)
            ready_.push_back(d->seq);
    }
    di.dependents.clear();
}

void
SmtCore::issueStage()
{
    // Sort the entries appended since the last drain and merge them
    // into the sorted prefix: the scan below then visits candidates
    // in VN# (oldest-first) order, exactly as the ordered set did.
    // The merge goes through the scratch buffer (inplace_merge would
    // allocate a temporary one every cycle).
    if (readySortedPrefix_ < ready_.size()) {
        auto mid = ready_.begin() +
                   static_cast<std::ptrdiff_t>(readySortedPrefix_);
        std::sort(mid, ready_.end());
        if (readySortedPrefix_ > 0) {
            readyKept_.clear();
            std::merge(ready_.begin(), mid, mid, ready_.end(),
                       std::back_inserter(readyKept_));
            ready_.swap(readyKept_);
        }
    }

    unsigned issued = 0;
    unsigned int_alu = 0, mem_ports = 0, complex = 0, fp = 0;
    readyKept_.clear();
    // Keep an entry for a later cycle, noting the first cycle it may
    // issue (the next event for quiet-cycle skipping).
    Cycle wake_at = noEvent;
    auto keep = [&](SeqNum seq, Cycle at) {
        readyKept_.push_back(seq);
        wake_at = std::min(wake_at, at);
    };

    for (SeqNum seq : ready_) {
        DynInst *di = inst(seq);
        if (!di || di->issued)
            continue;  // squashed since insertion: drop lazily
        if (di->eligibleAt > cycle_) {
            keep(seq, di->eligibleAt);
            continue;
        }

        const isa::OpTraits &tr = di->si->traits();
        // With dedicated slice resources, helper-thread instructions
        // use their own execution hardware; only the shared cache
        // ports constrain them.
        bool dedicated =
            di->sliceThread && cfg_.dedicatedSliceResources;
        if (!dedicated && issued >= cfg_.issueWidth) {
            keep(seq, cycle_ + 1);
            continue;
        }

        bool fu_ok = true;
        switch (tr.fu) {
          case isa::FuClass::IntAlu:
          case isa::FuClass::Branch:
            fu_ok = dedicated || int_alu < cfg_.numIntAlu;
            if (fu_ok && !dedicated)
                ++int_alu;
            break;
          case isa::FuClass::MemPort:
            fu_ok = mem_ports < cfg_.numMemPorts;
            if (fu_ok)
                ++mem_ports;
            break;
          case isa::FuClass::IntComplex:
            fu_ok = dedicated || complex < cfg_.numComplex;
            if (fu_ok && !dedicated)
                ++complex;
            break;
          case isa::FuClass::FpAlu:
            fu_ok = dedicated || fp < cfg_.numFp;
            if (fu_ok && !dedicated)
                ++fp;
            break;
          case isa::FuClass::None:
            break;
        }
        if (!fu_ok) {
            keep(seq, cycle_ + 1);
            continue;
        }

        cycleActive_ = true;
        di->issued = true;
        if (!dedicated)
            ++issued;

        Cycle lat = tr.latency;
        if (tr.isLoad || tr.isStore)
            lat = issueMemAccess(*di);

        di->completeAt = cycle_ + lat;
        completions_.push({di->completeAt, seq});
        if (events_) [[unlikely]]
            events_->push(obs::EventKind::Issue, di->thread, di->pc,
                          seq, lat);
    }

    // The kept entries are a subsequence of a sorted scan: already
    // sorted, so the next cycle merges only fresh insertions.
    ready_.swap(readyKept_);
    readySortedPrefix_ = ready_.size();
    readyWakeAt_ = wake_at;
}

Cycle
SmtCore::issueMemAccess(DynInst &di)
{
    const isa::OpTraits &tr = di.si->traits();
    Addr ea = di.fx.memAddr;

    if (di.fx.fault) {
        // Faulting slice access: no cache traffic, minimal latency.
        return cfg_.memory.l1Latency;
    }

    if (tr.isStore) {
        // Stores probe the L1 (dirty on hit); misses are handled at
        // retirement via the write buffer. The pipeline never waits.
        auto res = hierarchy_.accessStore(ea, cycle_);
        if (profileEnabled_ && !di.sliceThread) {
            auto &c = profile_.perPc[di.pc];
            ++c.storeExec;
            if (!res.l1Hit && !res.pvBufHit && !res.writeBufferHit)
                ++c.storeMiss;
        }
        if (!di.sliceThread) {
            ++s_.mainStores;
            if (!res.l1Hit && !res.pvBufHit && !res.writeBufferHit)
                ++s_.mainStoreMisses;
        }
        return 1;
    }

    // Loads (and prefetch ops).
    auto res = hierarchy_.accessData(ea, false, di.sliceThread, cycle_);
    bool l1_level_miss = !res.l1Hit && !res.pvBufHit &&
                         !res.writeBufferHit;
    if (l1_level_miss && events_) [[unlikely]]
        events_->push(obs::EventKind::MemDMiss, di.thread, di.pc, di.seq,
                      ea, res.latency);

    if (di.sliceThread) {
        ++s_.slicePrefetches;
    } else {
        ++s_.mainLoads;
        if (l1_level_miss)
            ++s_.mainLoadMisses;
        if (res.coveredBySlice)
            ++s_.mainCoveredMisses;
        if (profileEnabled_) {
            auto &c = profile_.perPc[di.pc];
            ++c.loadExec;
            if (l1_level_miss)
                ++c.loadMiss;
        }
    }

    if (!di.sliceThread && perfect_.loadPerfect(di.pc))
        return cfg_.memory.l1Latency;
    return res.latency;
}

void
SmtCore::completeStage()
{
    while (!completions_.empty() && completions_.top().first <= cycle_) {
        SeqNum seq = completions_.top().second;
        completions_.pop();
        cycleActive_ = true;
        DynInst *di = inst(seq);
        if (!di || !di->issued || di->completed)
            continue;  // squashed or stale event
        di->completed = true;
        wakeupDependents(*di);

        if (di->pgiToken != 0) {
            bool dir = (di->fx.value != 0) != di->pgiInvert;
            auto late = correlator_.onPgiExecute(di->pgiToken, dir);
            handleLateResult(late);
        }

        if (di->isBranch && !di->wrongPath)
            resolveBranch(*di);
    }
}

void
SmtCore::resolveBranch(DynInst &di)
{
    ThreadCtx &t = threads_[di.thread];
    bool actual_taken = di.fx.taken;
    Addr actual_next = di.fx.nextPc;
    bool mispredicted;

    if (di.si->isCondBranch())
        mispredicted = di.predictedTaken != actual_taken;
    else  // indirect (ret/jmp/callr): verify the followed target
        mispredicted = di.predictedTarget != actual_next;

    if (!di.sliceThread) {
        if (di.si->isCondBranch()) {
            ++s_.condBranches;
            if (mispredicted)
                ++s_.mispredictions;
            if (di.usedCorrelator) {
                ++s_.correlatorUsed;
                if (mispredicted)
                    ++s_.correlatorWrong;
            }
            if (profileEnabled_)
                recordBranchProfile(di, mispredicted);
            bpu_.updateCond(di.pc, di.bpCtx, actual_taken);
        } else if (di.si->isIndirect() && !di.si->isReturn()) {
            ++s_.indirectBranches;
            if (mispredicted)
                ++s_.indirectMispredictions;
            bpu_.updateIndirect(di.pc, di.bpCtx, actual_next);
        } else if (di.si->isReturn()) {
            ++s_.returns;
            if (mispredicted)
                ++s_.returnMispredictions;
        }
    }

    // Only a path that fetch did not follow needs a redirect. A branch
    // to its own fall-through fetched the right path in either
    // direction, and that path has executed. An unknown indirect target
    // (invalidAddr) stalled fetch, so it redirects even when the jump
    // goes to that very address.
    if (di.predictedTarget == actual_next && actual_next != invalidAddr)
        return;

    // Squash younger instructions and redirect fetch down the correct
    // path. All younger instructions in this thread are wrong-path by
    // construction, but the undo path is cheap and defensive.
    squashThread(di.thread, di.seq, true);

    if (!di.sliceThread) {
        correlator_.squashMain(di.seq);
        bpu_.restore(di.bpCheckpoint);
        if (di.si->isCondBranch())
            bpu_.shiftResolved(actual_taken);
        else if (di.si->isIndirect() && !di.si->isReturn())
            bpu_.shiftResolvedTarget(actual_next);
    } else {
        correlator_.squashSlice(t.forkSeq, di.seq);
        ++s_.sliceLocalSquashes;
    }

    di.predictedTaken = actual_taken;
    di.predictedTarget = actual_next;
    redirectFetch(di.thread, actual_next, cycle_ + 1);
}

void
SmtCore::recordBranchProfile(const DynInst &di, bool mispredicted)
{
    auto &c = profile_.perPc[di.pc];
    ++c.branchExec;
    if (mispredicted)
        ++c.branchMispred;
}

void
SmtCore::squashThread(ThreadId tid, SeqNum younger_than,
                      bool undo_functional)
{
    ThreadCtx &t = threads_[tid];
    while (!t.rob.empty() && t.rob.back() > younger_than) {
        SeqNum seq = t.rob.back();
        t.rob.pop_back();
        DynInst *dp = inFlight_.find(seq);
        SS_ASSERT(dp, "rob entry missing");
        DynInst &d = *dp;

        if (d.setsLastWriter && t.lastWriter[d.si->rc] == d.seq)
            t.lastWriter[d.si->rc] = d.prevWriter;

        if (d.forkedThread != invalidThread) {
            // The fork point is squashed: kill the forked slice.
            ThreadCtx &st = threads_[d.forkedThread];
            if (st.active && st.isSlice && st.forkSeq == d.seq) {
                squashThread(d.forkedThread, invalidSeqNum, false);
                st.active = false;
                ++s_.forksSquashed;
            }
        }

        if (undo_functional && !d.wrongPath && !d.sliceThread &&
            d.si->isStore()) {
            // Undo this store's functional effect (reversal squash).
            while (!storeUndoLog_.empty() &&
                   storeUndoLog_.back().seq >= d.seq) {
                const StoreUndo &u = storeUndoLog_.back();
                if (u.seq == d.seq)
                    mem_.write(u.addr, u.oldValue, u.size);
                storeUndoLog_.pop_back();
            }
        }

        // ready_ entries for squashed VN#s are dropped lazily by
        // issueStage (the in-flight lookup fails).
        unsigned &occupancy = windowCounterFor(d.sliceThread);
        SS_ASSERT(occupancy > 0 && t.icount > 0,
                  "occupancy underflow");
        --occupancy;
        --t.icount;
        ++(d.sliceThread ? s_.sliceSquashedInsts : s_.mainSquashedInsts);
        if (events_) [[unlikely]]
            events_->push(obs::EventKind::Squash, tid, d.pc, seq);
        inFlight_.erase(seq);
    }
}

void
SmtCore::redirectFetch(ThreadId tid, Addr pc, Cycle resume_at)
{
    ThreadCtx &t = threads_[tid];
    t.fetchPc = pc;
    t.fetchStallUntil = resume_at;
    t.onWrongPath = (pc != t.funcPc);
    t.fetchLine = invalidAddr;
}

void
SmtCore::handleLateResult(
    const slice::PredictionCorrelator::LateResult &late)
{
    if (!late.hasConsumer || !cfg_.lateReversalsEnabled)
        return;
    DynInst *br = inst(late.consumerSeq);
    if (!br || br->completed || br->wrongPath)
        return;  // consumer resolved, squashed or speculative-dead
    if (late.computedDir == late.usedDir) {
        ++s_.lateAgreements;
        return;
    }

    // Early resolution (Section 5.3): the slice's computed outcome
    // disagrees with the direction the branch was fetched with; reverse
    // the prediction and redirect fetch before the branch resolves.
    SS_ASSERT(br->si->isCondBranch(), "late binding on non-branch");
    ++s_.lateReversals;

    ThreadCtx &t = threads_[br->thread];
    if (br->regCheckpointAfter)
        t.regs = *br->regCheckpointAfter;
    squashThread(br->thread, br->seq, true);
    correlator_.squashMain(br->seq);

    bpu_.restore(br->bpCheckpoint);
    bpu_.shiftResolved(late.computedDir);
    br->predictedTaken = late.computedDir;
    br->usedCorrelator = true;
    t.funcPc = br->fx.nextPc;

    Addr new_pc = late.computedDir ? br->si->target
                                   : br->pc + isa::instBytes;
    br->predictedTarget = new_pc;
    redirectFetch(br->thread, new_pc, cycle_ + 1);
}

void
SmtCore::retireStage()
{
    unsigned budget = cfg_.retireWidth;

    for (ThreadId tid = 0; tid < threads_.size() && budget > 0; ++tid) {
        ThreadCtx &t = threads_[tid];
        if (!t.active)
            continue;
        while (budget > 0 && !t.rob.empty()) {
            SeqNum seq = t.rob.front();
            DynInst *d = inst(seq);
            SS_ASSERT(d, "rob head missing");
            if (!d->completed)
                break;
            SS_ASSERT(!d->wrongPath, "wrong-path inst at retire");
            // The head retires or the write buffer refuses it; both
            // are activity.
            cycleActive_ = true;

            if (d->si->isStore() && !d->sliceThread && !d->fx.fault) {
                if (!hierarchy_.retireStore(d->fx.memAddr, cycle_)) {
                    ++s_.retireWbStalls;
                    if (events_) [[unlikely]]
                        events_->push(obs::EventKind::MemWbFull, tid,
                                      d->pc, seq, d->fx.memAddr);
                    break;  // write buffer full: retry next cycle
                }
            }

            if (d->si->op == isa::Opcode::Halt && !d->sliceThread)
                mainHalted_ = true;

            if (d->setsLastWriter && t.lastWriter[d->si->rc] == d->seq)
                t.lastWriter[d->si->rc] = invalidSeqNum;

            t.rob.pop_front();
            --windowCounterFor(d->sliceThread);
            --t.icount;
            --budget;
            if (d->sliceThread) {
                ++s_.sliceRetired;
            } else {
                if (checker_) [[unlikely]]
                    checkRetirement(*d);
                ++mainRetired_;
            }
            if (events_) [[unlikely]]
                events_->push(obs::EventKind::Retire, tid, d->pc, seq);
            inFlight_.erase(seq);
        }

        if (t.isSlice && t.fetchEnded && t.rob.empty() && t.active)
            releaseSliceThread(tid);
    }

    SeqNum bound = oldestInFlight();

    // Stop slices whose every branch-queue entry has been killed by a
    // retired (non-speculative) slice kill: none of their remaining
    // work can be consumed, so squash them to free the shared window.
    if (cfg_.terminateDeadSlices) {
        const SeqNum retired_bound = bound - 1;
        bool squashed = false;
        for (ThreadId tid = 1; tid < threads_.size(); ++tid) {
            ThreadCtx &t = threads_[tid];
            if (!t.isSlice || !t.active || t.fetchEnded)
                continue;
            if (!correlator_.allEntriesDead(t.forkSeq, retired_bound))
                continue;
            squashThread(tid, invalidSeqNum, false);
            correlator_.squashSlice(t.forkSeq, invalidSeqNum);
            t.fetchEnded = true;
            ++s_.slicesTerminatedDead;
            releaseSliceThread(tid);
            squashed = true;
        }
        if (squashed)
            bound = oldestInFlight();
    }

    // Reclaim correlator slots whose kills have retired, and prune the
    // store-undo log.
    correlator_.retireUpTo(bound > 0 ? bound - 1 : 0);
    while (!storeUndoLog_.empty() && storeUndoLog_.front().seq < bound)
        storeUndoLog_.pop_front();
}

std::string
SmtCore::diagnoseStall(Cycle stalled_for)
{
    ThreadCtx &main = threads_[0];
    std::string d = "watchdog: main thread retired nothing for " +
                    std::to_string(stalled_for) + " cycles (cycle " +
                    std::to_string(cycle_) + ", retired " +
                    std::to_string(mainRetired_) + ")";

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\n  fetch: pc=0x%llx wrong_path=%d ended=%d "
                  "stall_until=%llu halted=%d",
                  static_cast<unsigned long long>(main.fetchPc),
                  int{main.onWrongPath}, int{main.fetchEnded},
                  static_cast<unsigned long long>(main.fetchStallUntil),
                  int{mainHalted_});
    d += buf;

    // Stalled-stage breakdown of the main-thread ROB.
    std::size_t wait_src = 0, wait_issue = 0, in_flight = 0, done = 0;
    for (SeqNum seq : main.rob) {
        DynInst *di = inst(seq);
        if (!di)
            continue;
        if (di->completed)
            ++done;
        else if (di->issued)
            ++in_flight;
        else if (di->pendingSrcs > 0)
            ++wait_src;
        else
            ++wait_issue;
    }
    std::snprintf(buf, sizeof(buf),
                  "\n  rob: %zu entries (%zu completed, %zu executing, "
                  "%zu waiting-srcs, %zu waiting-issue), window %u/%u",
                  main.rob.size(), done, in_flight, wait_src,
                  wait_issue, windowOccupancy_, cfg_.windowSize);
    d += buf;

    if (!main.rob.empty()) {
        if (DynInst *h = inst(main.rob.front())) {
            std::snprintf(
                buf, sizeof(buf),
                "\n  rob head: seq=%llu pc=0x%llx [%s] issued=%d "
                "completed=%d pending_srcs=%u eligible_at=%llu "
                "complete_at=%llu",
                static_cast<unsigned long long>(h->seq),
                static_cast<unsigned long long>(h->pc),
                h->si->disassemble().c_str(), int{h->issued},
                int{h->completed}, h->pendingSrcs,
                static_cast<unsigned long long>(h->eligibleAt),
                static_cast<unsigned long long>(h->completeAt));
            d += buf;
        }
    }

    std::snprintf(
        buf, sizeof(buf),
        "\n  mem: %zu outstanding fills, write buffer %zu/%u, "
        "retire_wb_stalls=%llu",
        hierarchy_.outstandingFills(cycle_),
        hierarchy_.writeBufferOccupancy(), cfg_.memory.writeBufEntries,
        static_cast<unsigned long long>(s_.retireWbStalls.value()));
    d += buf;

    unsigned live_slices = 0;
    for (ThreadId tid = 1; tid < threads_.size(); ++tid) {
        ThreadCtx &t = threads_[tid];
        if (!t.active)
            continue;
        ++live_slices;
        std::snprintf(buf, sizeof(buf),
                      "\n  slice tid=%u: idx=%d forkSeq=%llu rob=%zu "
                      "fetch_ended=%d iters=%u",
                      unsigned{tid}, t.sliceIdx,
                      static_cast<unsigned long long>(t.forkSeq),
                      t.rob.size(), int{t.fetchEnded}, t.loopIters);
        d += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "\n  threads: %u live slices, ready queue %zu, "
                  "correlator entries %zu",
                  live_slices, ready_.size(),
                  correlator_.liveEntries());
    d += buf;
    return d;
}

void
SmtCore::checkRetirement(const DynInst &di)
{
    // Everything the reference interpreter cross-checks comes from the
    // functional outcome computed on the correct path at fetch —
    // exactly the values this core's architectural state is built
    // from, so any internal corruption that reaches retirement is
    // caught here.
    check::RetireRecord rec;
    rec.seq = di.seq;
    rec.pc = di.pc;
    rec.wroteReg = di.fx.wroteReg;
    rec.reg = di.si->rc;
    rec.value = di.fx.value;
    rec.isStore = di.si->isStore();
    rec.storeAddr = di.fx.memAddr;
    rec.storeData = di.fx.value;
    rec.isCondBranch = di.si->isCondBranch();
    rec.taken = di.fx.taken;
    rec.nextPc = di.fx.nextPc;
    checker_->onRetire(rec);
}

void
SmtCore::releaseSliceThread(ThreadId tid)
{
    ThreadCtx &t = threads_[tid];
    SS_ASSERT(t.isSlice && t.rob.empty(), "slice thread still busy");
    t.active = false;
    cycleActive_ = true;

    if (cfg_.forkConfidenceGating && t.sliceIdx >= 0) {
        // Train the fork gate: did the main thread consume anything
        // this slice produced? Prefetch-only slices have no
        // consumption signal and stay ungated.
        const slice::SliceDescriptor &desc =
            sliceTable_.slice(static_cast<unsigned>(t.sliceIdx));
        if (!desc.pgis.empty()) {
            bool useful = correlator_.consumedCount(t.forkSeq) > 0;
            forkGate_[desc.forkPc].confidence.update(useful);
        }
    }

    correlator_.onSliceDone(t.forkSeq);
    ++s_.slicesCompleted;
    if (events_) [[unlikely]]
        events_->push(obs::EventKind::SliceEnd, tid, t.fetchPc,
                      t.forkSeq);
}

} // namespace specslice::core
