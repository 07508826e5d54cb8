/**
 * @file
 * The simultaneous multithreading out-of-order core (Table 1) extended
 * with the paper's slice-execution hardware (Section 4) and prediction
 * correlator (Section 5).
 *
 * Timing model: execute-at-fetch. Correct-path instructions execute
 * functionally in fetch order; the scheduler decides when results
 * become visible (same-cycle scheduling with a perfect load hit/miss
 * predictor, per Table 1). Wrong-path fetch walks the static code using
 * the predictors, consuming fetch bandwidth and window entries, but
 * never executes. Helper threads run slices: they own their registers
 * (copied at fork), share the L1D (prefetch effect), perform no stores,
 * and terminate on max-iteration count, faults, or SliceEnd.
 */

#ifndef SPECSLICE_CORE_SMT_CORE_HH
#define SPECSLICE_CORE_SMT_CORE_HH

#include <array>
#include <deque>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "arch/checkpoint.hh"
#include "arch/memimg.hh"
#include "arch/regfile.hh"
#include "common/bitutils.hh"
#include "branch/predictor_unit.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "core/dyninst.hh"
#include "core/perfect.hh"
#include "fault/fault.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "obs/events.hh"
#include "obs/interval.hh"
#include "slice/correlator.hh"
#include "slice/slice_table.hh"

namespace specslice::check
{
class RetireChecker;
}

namespace specslice::core
{

/** Per-static-instruction PDE profile hook (Section 2.2). */
struct PcProfile
{
    struct Counts
    {
        std::uint64_t branchExec = 0;
        std::uint64_t branchMispred = 0;
        std::uint64_t loadExec = 0;
        std::uint64_t loadMiss = 0;
        std::uint64_t storeExec = 0;
        std::uint64_t storeMiss = 0;
    };
    std::unordered_map<Addr, Counts> perPc;
};

/**
 * How a simulation run ended. Anything but Completed means the
 * reported stats cover a truncated or perturbed run; tools surface
 * the outcome in --stats/--json and exit non-zero unless explicitly
 * told a partial result is acceptable.
 */
enum class SimOutcome
{
    Completed,          ///< budget retired or program halted
    CycleLimit,         ///< hard cycle limit hit before the budget
    Watchdog,           ///< no forward progress for watchdogCycles
    CheckerDivergence,  ///< retirement checker latched a divergence
    Fault,              ///< run died with a SimError (tools only)
};

/** Stable lower-case name for JSON/stats output. */
const char *outcomeName(SimOutcome outcome);

/**
 * The hard cycle limit used when RunOptions::maxCycles is 0: 50 cycles
 * per budgeted instruction (an IPC floor of 0.02, far below anything a
 * live run produces) plus slack that scales with the budget so short
 * and long runs get the same proportional headroom. The old fixed
 * 100k-cycle slack starved runs whose warm-up dwarfed the measured
 * region; the floor keeps tiny smoke runs from getting a uselessly
 * tight limit.
 */
Cycle defaultCycleLimit(std::uint64_t max_main_instructions,
                        std::uint64_t warmup_instructions);

/** Options for one simulation run. */
struct RunOptions
{
    /** Stop after this many main-thread instructions retire. */
    std::uint64_t maxMainInstructions = 1'000'000;
    /** Hard cycle limit (deadlock guard). */
    Cycle maxCycles = 0;  ///< 0 = 50x instruction budget
    /**
     * Forward-progress watchdog: if the main thread retires nothing
     * for this many cycles the run terminates with SimOutcome::Watchdog
     * and a structured diagnosis in RunResult::diagnosis.
     * 0 = default (250k cycles, far beyond any legitimate stall).
     */
    Cycle watchdogCycles = 0;
    bool watchdogEnabled = true;
    /** Fault-injection plan for this run (empty = no injection). */
    fault::FaultPlan faults;
    /**
     * When set, the interval time-series is accumulated directly into
     * this caller-owned vector instead of run()-local storage, so a
     * crash-dump handler can flush the partial series even if run()
     * never returns. RunResult::intervals is still populated.
     */
    std::vector<obs::IntervalRecord> *intervalSink = nullptr;
    /** Run this many main-thread instructions before resetting stats
     *  (cache/predictor warm-up, Section 6). */
    std::uint64_t warmupInstructions = 0;
    PerfectSpec perfect;
    /** Collect the per-PC PDE profile (costs some time). */
    bool profile = false;
    /**
     * Record an interval stats time-series with this window length in
     * cycles (0 = off). Windows cover the measured region (recording
     * restarts at the warm-up stats reset); the final partial window
     * is included, so per-window deltas sum to the end-of-run
     * counters.
     */
    Cycle intervalCycles = 0;
    /**
     * Record typed pipeline/correlator events into this buffer (null
     * = off; see obs/events.hh for the event vocabulary). The buffer
     * must outlive the run; each run needs its own buffer.
     */
    obs::EventBuffer *events = nullptr;
    /**
     * Differential-correctness checker fed at every main-thread
     * retirement (null = off). The checker must start from the same
     * entry PC and initial memory image as this run and must outlive
     * it; each run needs its own instance. sim::Simulator constructs
     * one per run when the sim-level `check` flag is set. Ignored in
     * SS_CHECK_DISABLED builds (the hook is compiled out).
     */
    check::RetireChecker *checker = nullptr;

    // ---- sim-level checking knobs (interpreted by sim::Simulator,
    //      which owns checker construction per run) ----
    /** Co-simulate with the retirement checker (also forced on for
     *  every run by SS_CHECK=1 in the environment). */
    bool check = false;
    /** SS_FATAL with the first-divergence report the moment a
     *  divergence is detected. When false the divergence is latched
     *  into RunResult instead (used by the injected-fault tests). */
    bool checkFatal = true;
    /** Mutation-style self-test: corrupt the Nth (1-based) observed
     *  register writeback / store before comparison. 0 = off. */
    std::uint64_t checkInjectRegFault = 0;
    std::uint64_t checkInjectStoreFault = 0;

    // ---- architectural-state injection (checkpoint/sampled runs;
    //      sim::Simulator fills these from a FastForward snapshot) ----
    /** Start the main thread's registers from this file instead of
     *  zeros. Must outlive the run. */
    const arch::RegFile *initialRegs = nullptr;
    /** Replay these branch outcomes into the predictor before the
     *  first fetch, so a mid-program start doesn't begin with a cold
     *  front end. Must outlive the run. */
    const std::vector<arch::BranchWarmthRecord> *branchWarmth = nullptr;
    /** Replay these data accesses into the cache hierarchy before the
     *  first fetch (oldest first), so a mid-program start doesn't
     *  begin with a cold L1D/L2. Must outlive the run. */
    const std::vector<arch::MemWarmthRecord> *memWarmth = nullptr;
    /** Replay these executed instruction addresses into the I-side of
     *  the hierarchy before the first fetch (oldest first), so a
     *  mid-program start doesn't begin with a cold L1I. Must outlive
     *  the run. */
    const std::vector<Addr> *instWarmth = nullptr;

    // ---- sampling knobs (interpreted by sim::Simulator::run, which
    //      owns the fast-forward engine and region orchestration) ----
    /**
     * Functionally fast-forward to this absolute instruction count
     * (from the workload entry) before the first timing region.
     * Warm-up (warmupInstructions) and measurement
     * (maxMainInstructions) then run in detail from that point.
     */
    std::uint64_t fastForwardInstructions = 0;
    /**
     * Number of detailed timing regions to sample and aggregate
     * (0 or 1 = a single region). Each region runs warm-up + measure
     * instructions on a snapshot of the architectural state; between
     * regions the fast-forward engine advances sampleStride
     * instructions along the pristine architectural stream.
     */
    unsigned sampleRegions = 0;
    /** Instructions between region starts (0 = contiguous: warm-up +
     *  measure, i.e. the next region starts where this one ended). */
    std::uint64_t sampleStride = 0;
    /** Replay fast-forward branch history into each region's predictor
     *  (disable to measure cold-start bias). */
    bool warmPredictors = true;
    /** Replay fast-forward data accesses into each region's cache
     *  hierarchy (disable to measure cold-cache bias). */
    bool warmCaches = true;
    /** Replay fast-forward instruction lines into each region's L1I
     *  (--cold-icache disables it, the i-side analogue of the two
     *  flags above). */
    bool warmInstCache = true;
    /** Load the starting architectural state from this checkpoint file
     *  ("" = start at the workload entry). */
    std::string restoreCheckpoint;
    /** After fast-forwarding, save the pre-region architectural state
     *  here ("" = don't). */
    std::string saveCheckpoint;

    // ---- trace-driven runs (interpreted by the callers that load
    //      the workload: trace::loadTraceWorkload rebuilds the
    //      embedded program/memory/slices and the simulator runs it
    //      like any other workload) ----
    /**
     * The sstr trace file this run's workload was reconstructed from
     * ("" = a builder-made workload). The core never reads it; it is
     * run *identity*: sim::runCacheKey folds the file's content hash
     * into the cache key, so a rewritten trace invalidates cached
     * results by construction and a trace-mode run never aliases the
     * equivalent workload-mode run.
     */
    std::string traceFile;
};

/** Aggregated results of a run. */
struct RunResult
{
    /** How the run ended (sim::Simulator upgrades Completed to
     *  CheckerDivergence when a divergence was latched). */
    SimOutcome outcome = SimOutcome::Completed;
    /** Watchdog stall diagnosis (empty unless outcome == Watchdog). */
    std::string diagnosis;
    /** Total injected-fault firings (0 when injection is off). */
    std::uint64_t faultsInjected = 0;
    /** Per-site firing counts, "site=n,site=n" ("" when none). */
    std::string faultSummary;
    Cycle cycles = 0;
    std::uint64_t mainRetired = 0;
    std::uint64_t mainFetched = 0;       ///< correct + wrong path
    std::uint64_t mainFetchedWrongPath = 0;
    std::uint64_t sliceFetched = 0;
    std::uint64_t sliceRetired = 0;      ///< slice insts that executed
    std::uint64_t condBranches = 0;      ///< main, resolved
    std::uint64_t mispredictions = 0;    ///< main, resolved wrong
    std::uint64_t loads = 0;             ///< main thread loads issued
    std::uint64_t l1dMissesMain = 0;
    std::uint64_t coveredMisses = 0;     ///< via slice prefetch
    std::uint64_t slicePrefetches = 0;   ///< slice loads executed
    std::uint64_t forks = 0;
    std::uint64_t forksSquashed = 0;
    std::uint64_t forksIgnored = 0;
    std::uint64_t predictionsGenerated = 0;
    std::uint64_t correlatorUsed = 0;    ///< overrides consumed
    std::uint64_t correlatorWrong = 0;   ///< overrides that mispredicted
    std::uint64_t latePredictions = 0;   ///< matched while Empty
    std::uint64_t lateReversals = 0;     ///< early resolutions performed
    StatGroup detail;                    ///< everything else
    /** Interval time-series (empty unless RunOptions.intervalCycles). */
    std::vector<obs::IntervalRecord> intervals;

    // Sampling provenance (filled by sim::Simulator for sampled runs).
    /** Instructions skipped functionally before the first region. */
    std::uint64_t fastForwarded = 0;
    /** Timing regions aggregated into this result (0 = unsampled). */
    unsigned sampledRegions = 0;

    // Wall-clock phase breakdown and trace bookkeeping. Never
    // serialized into result documents: they are nondeterministic,
    // so a result-cache hit restores them as 0. They feed
    // WorkloadPerf::instsPerSec and the repository benchmark's
    // per-phase host times (perfbench/).
    /** Wall seconds spent fast-forwarding (sampled runs only). */
    double wallFastForwardSeconds = 0.0;
    /** Wall seconds from run start to the warm-up stats reset. */
    double wallWarmupSeconds = 0.0;
    /** Wall seconds from the stats reset to run end. */
    double wallMeasureSeconds = 0.0;
    /** Cycles simulated including warm-up (RunResult::cycles covers
     *  the measured region only); used to stitch multi-run traces. */
    Cycle totalCycles = 0;

    // Retirement-checker outcome (RunOptions.check runs only).
    /** Main-thread retirements the checker compared (warm-up included;
     *  0 when checking was off or compiled out). */
    std::uint64_t checkedRetired = 0;
    /** A divergence was latched (only reachable with checkFatal off —
     *  fatal mode aborts at the divergence point). */
    bool checkDiverged = false;
    /** First-divergence report (empty unless checkDiverged). */
    std::string checkReport;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(mainRetired) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    PcProfile profile;
};

class SmtCore
{
  public:
    SmtCore(const CoreConfig &cfg, const isa::Program &program,
            arch::MemoryImage &mem);

    /** Load a slice into the slice/PGI tables. */
    void loadSlice(const slice::SliceDescriptor &desc);

    /** Run the main thread from entry_pc until halt or limits. */
    RunResult run(Addr entry_pc, const RunOptions &opts);

  private:
    // ---- per-thread state ----
    struct ThreadCtx
    {
        bool active = false;
        bool isSlice = false;
        Addr fetchPc = invalidAddr;
        Addr funcPc = invalidAddr;      ///< next correct-path PC
        Addr fetchLine = invalidAddr;   ///< last I-cache line touched
        bool onWrongPath = false;
        Cycle fetchStallUntil = 0;
        bool fetchEnded = false;        ///< halt/terminate: drain only
        arch::RegFile regs;
        std::deque<SeqNum> rob;         ///< fetch order, oldest first
        std::array<SeqNum, isa::numRegs> lastWriter{};
        unsigned icount = 0;            ///< in-flight count (ICOUNT)
        // Slice-thread fields.
        int sliceIdx = -1;
        SeqNum forkSeq = invalidSeqNum;
        unsigned loopIters = 0;
        /** slice.kill injection: cycle at which to kill (0 = none). */
        Cycle killAtCycle = 0;
    };

    struct StoreUndo
    {
        SeqNum seq;
        Addr addr;
        unsigned size;
        std::uint64_t oldValue;
    };

    // ---- pipeline stages (one file per stage) ----
    void fetchStage();
    void fetchFrom(ThreadId tid);
    bool fetchOne(ThreadCtx &t, ThreadId tid, unsigned &fetched);
    void issueStage();
    void completeStage();
    void retireStage();

    // ---- helpers ----
    ThreadId pickFetchThread(bool slices_only = false) const;
    /** The window-occupancy counter an instruction charges against
     *  (helper threads get their own window with dedicated
     *  resources, Section 6.3). */
    unsigned &windowCounterFor(bool slice_thread);
    DynInst *inst(SeqNum seq);
    void setupDependencies(DynInst &di, ThreadCtx &t);
    void wakeupDependents(DynInst &di);
    void resolveBranch(DynInst &di);
    /** Timed D-cache access at issue. @return completion latency. */
    Cycle issueMemAccess(DynInst &di);
    /** Squash all instructions of thread tid younger than seq. */
    void squashThread(ThreadId tid, SeqNum younger_than,
                      bool undo_functional);
    void redirectFetch(ThreadId tid, Addr pc, Cycle resume_at);
    void forkSlice(DynInst &fork_inst, int slice_idx);
    /** Rewind a slice load's value to memory as of the fork point. */
    void adjustSliceLoad(ThreadCtx &t, DynInst &di);
    /** Count a taken slice back-edge. @return true if limit reached. */
    bool countSliceIteration(ThreadCtx &t, Addr pc);
    void terminateSliceFetch(ThreadCtx &t, ThreadId tid);
    void releaseSliceThread(ThreadId tid);
    void handleLateResult(
        const slice::PredictionCorrelator::LateResult &late);
    SeqNum oldestInFlight() const;
    /** Kill slice threads whose injected killAtCycle has passed. */
    void applyInjectedSliceKills();
    /** Structured no-forward-progress report for the watchdog. */
    std::string diagnoseStall(Cycle stalled_for);
    void resetStats();
    void recordBranchProfile(const DynInst &di, bool mispredicted);
    /** Report one main-thread retirement to the attached checker. */
    void checkRetirement(const DynInst &di);

    // ---- observability ----
    /** Baselines for the interval time-series (active when
     *  RunOptions.intervalCycles > 0). */
    struct IntervalState
    {
        StatGroup::Snapshot core, mem, corr;
        std::uint64_t retiredBase = 0;
        Cycle windowStart = 0;
        Cycle nextBoundary = 0;
        std::uint64_t index = 0;
    };
    /** (Re)start interval recording at the current cycle. */
    void restartIntervals(IntervalState &st, Cycle interval_cycles);
    /** Close the current window and append its record. */
    void captureInterval(IntervalState &st, Cycle interval_cycles,
                         std::vector<obs::IntervalRecord> &out);

    // ---- configuration & structural state ----
    CoreConfig cfg_;
    const isa::Program &program_;
    arch::MemoryImage &mem_;
    mem::MemoryHierarchy hierarchy_;
    branch::BranchPredictorUnit bpu_;
    slice::SliceTable sliceTable_;
    slice::PredictionCorrelator correlator_;
    PerfectSpec perfect_;
    /** Per-run fault-injection state (inactive when the plan is
     *  empty; pointers handed to the units only when enabled). */
    fault::Injector injector_;
    bool profileEnabled_ = false;
    /** Structured-event sink for this run (null = off). */
    obs::EventBuffer *events_ = nullptr;
    /** Retirement-time architectural checker (null = off). */
    check::RetireChecker *checker_ = nullptr;

    /**
     * The in-flight instruction window, keyed by VN#. Sequence
     * numbers are handed out densely and instructions are inserted in
     * VN# order, so the live range [base, base + slots) stays within
     * a few window sizes; a deque of optionals gives O(1) lookup with
     * no hashing and no per-instruction node allocation. Deque
     * end-operations keep references to other elements stable, same
     * as the node-based map this replaces.
     */
    class InFlightWindow
    {
      public:
        DynInst *
        find(SeqNum seq)
        {
            if (seq < base_ || seq - base_ >= slots_.size())
                return nullptr;
            auto &slot = slots_[seq - base_];
            return slot ? &*slot : nullptr;
        }

        /** Insert seq's instruction; seq must be newer than all
         *  previous insertions. */
        DynInst &
        emplace(SeqNum seq, DynInst &&di)
        {
            if (slots_.empty())
                base_ = seq;
            while (base_ + slots_.size() < seq)
                slots_.emplace_back(std::nullopt);
            return *slots_.emplace_back(std::move(di));
        }

        void
        erase(SeqNum seq)
        {
            if (seq < base_ || seq - base_ >= slots_.size())
                return;
            slots_[seq - base_].reset();
            while (!slots_.empty() && !slots_.front()) {
                slots_.pop_front();
                ++base_;
            }
        }

      private:
        SeqNum base_ = 0;
        std::deque<std::optional<DynInst>> slots_;
    };

    // ---- dynamic state ----
    Cycle cycle_ = 0;
    SeqNum nextSeq_ = 1;
    std::vector<ThreadCtx> threads_;
    InFlightWindow inFlight_;
    unsigned windowOccupancy_ = 0;
    /** Separate helper-thread window (dedicated-resources mode). */
    unsigned sliceWindowOccupancy_ = 0;
    /** Per-fork-PC usefulness state (fork-confidence gating). */
    struct ForkGate
    {
        SatCounter confidence{3, 7};  ///< start confident
        std::uint8_t probe = 0;       ///< periodic re-probe counter
    };
    std::unordered_map<Addr, ForkGate> forkGate_;
    /**
     * Ready-to-issue instructions. Insertions (fetch and wakeup) are
     * appended; issueStage sorts the appended tail once per cycle and
     * drains in VN# order — identical selection order to the ordered
     * set this replaces, without per-insert node allocation or
     * rebalancing. Squashed entries are dropped lazily (their VN# no
     * longer resolves in the in-flight window).
     */
    std::vector<SeqNum> ready_;
    /** Prefix of ready_ already in sorted order. */
    std::size_t readySortedPrefix_ = 0;
    /** Scratch for the per-cycle drain (kept to reuse capacity). */
    std::vector<SeqNum> readyKept_;
    using Event = std::pair<Cycle, SeqNum>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        completions_;
    std::deque<StoreUndo> storeUndoLog_;
    std::uint64_t mainRetired_ = 0;
    bool mainHalted_ = false;

    // ---- statistics ----
    /** Handles into stats_, registered once at construction so the
     *  per-instruction pipeline loops never do string lookups. */
    struct Handles
    {
        explicit Handles(StatGroup &g);
        // fetch stage
        Stat &fetchWindowStalls;
        Stat &icacheStallCycles;
        Stat &indirectFetchStalls;
        Stat &sliceFaults;
        Stat &sliceFetched;
        Stat &mainFetched;
        Stat &mainFetchedWrongpath;
        Stat &forksGated;
        Stat &forksIgnored;
        Stat &forks;
        Stat &sliceLoadsForkAdjusted;
        // issue/memory
        Stat &mainStores;
        Stat &mainStoreMisses;
        Stat &slicePrefetches;
        Stat &mainLoads;
        Stat &mainLoadMisses;
        Stat &mainCoveredMisses;
        // resolve/squash
        Stat &condBranches;
        Stat &mispredictions;
        Stat &correlatorUsed;
        Stat &correlatorWrong;
        Stat &indirectBranches;
        Stat &indirectMispredictions;
        Stat &returns;
        Stat &returnMispredictions;
        Stat &sliceLocalSquashes;
        Stat &forksSquashed;
        Stat &sliceSquashedInsts;
        Stat &mainSquashedInsts;
        Stat &lateAgreements;
        Stat &lateReversals;
        // retire
        Stat &retireWbStalls;
        Stat &sliceRetired;
        Stat &slicesTerminatedDead;
        Stat &slicesCompleted;
    };

    StatGroup stats_;
    Handles s_;
    PcProfile profile_;
};

} // namespace specslice::core

#endif // SPECSLICE_CORE_SMT_CORE_HH
