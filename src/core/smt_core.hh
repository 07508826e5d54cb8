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
#include <queue>
#include <unordered_map>
#include <vector>

#include "arch/checkpoint.hh"
#include "arch/memimg.hh"
#include "arch/regfile.hh"
#include "common/bitutils.hh"
#include "branch/predictor_unit.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "core/dyninst.hh"
#include "core/perfect.hh"
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
 * reported stats cover a truncated run; tools surface the outcome in
 * --stats/--json and exit non-zero unless explicitly told a partial
 * result is acceptable. Declared from best to worst (see
 * isWorseOutcome).
 */
enum class SimOutcome
{
    Completed,   ///< budget retired or program halted
    CycleLimit,  ///< hard cycle limit hit before the budget
    Watchdog,    ///< no forward progress for watchdogCycles
};

/** Stable lower-case name for JSON/stats output. */
const char *outcomeName(SimOutcome outcome);

/** Is `a` a worse way for a run to end than `b`? An aggregate of
 *  several runs (sampled regions, --compare, a verify workload's two
 *  configurations) reports its worst outcome. */
bool isWorseOutcome(SimOutcome a, SimOutcome b);

/**
 * The hard cycle limit used when RunOptions::maxCycles is 0: 50 cycles
 * per budgeted instruction (an IPC floor of 0.02, far below anything a
 * live run produces) plus slack that scales with the budget so short
 * and long runs get the same proportional headroom. The old fixed
 * 100k-cycle slack starved runs whose warm-up dwarfed the measured
 * region; the floor keeps tiny smoke runs from getting a uselessly
 * tight limit. A budget or limit that overflows 64 bits is fatal
 * (SS_FATAL), never wrapped.
 */
Cycle defaultCycleLimit(std::uint64_t max_main_instructions,
                        std::uint64_t warmup_instructions);

/**
 * What SmtCore::run reads for one detailed run. sim::RunOptions extends
 * it with the checker flag, sampling knobs and checkpoint paths that
 * sim::Simulator interprets before it calls the core.
 */
struct RunOptions
{
    /** Stop after this many main-thread instructions retire. */
    std::uint64_t maxMainInstructions = 1'000'000;
    /** Hard cycle limit (deadlock guard). */
    Cycle maxCycles = 0;  ///< 0 = 50x instruction budget
    /**
     * Forward-progress watchdog: if the main thread retires nothing
     * for this many cycles the run terminates with SimOutcome::Watchdog
     * and a structured diagnosis in RunResult::diagnosis (0 = off).
     * The default is far beyond any legitimate stall (worst-case
     * memory chains are a few thousand cycles) and far below the 50x
     * cycle budget.
     */
    Cycle watchdogCycles = 250'000;
    /**
     * When set, the interval time-series is accumulated directly into
     * this caller-owned vector instead of run()-local storage, so the
     * caller still has the partial series when run() throws a
     * SimError. RunResult::intervals is still populated.
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
     * retirement (null = off). The checker must start from a copy of
     * this run's start and must outlive it; each run needs its own
     * instance. sim::Simulator constructs one per run when the
     * sim-level `check` flag is set.
     */
    check::RetireChecker *checker = nullptr;
    /**
     * The architectural state the run starts from: the main thread's
     * registers, and the branch outcomes, data accesses and executed
     * instruction lines to replay into the predictor and the cache
     * hierarchy (oldest first) before the first fetch, so a
     * mid-program start does not begin with a cold machine. The core
     * executes on the memory image it was built with, not on
     * start->mem. Null = zero registers and no warm-up replay. Must
     * outlive the run; sim::Simulator::runOne is the only code that
     * sets it.
     */
    const arch::Checkpoint *start = nullptr;
};

/** Aggregated results of a run. */
struct RunResult
{
    /** How the run ended. */
    SimOutcome outcome = SimOutcome::Completed;
    /** Watchdog stall diagnosis (empty unless outcome == Watchdog). */
    std::string diagnosis;
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
    // digested: they are nondeterministic. They feed
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
    /** Of totalCycles, the quiet cycles run() jumped over instead of
     *  stepping. Host-speed bookkeeping like the wall-clock fields:
     *  never serialized or digested. */
    Cycle skippedCycles = 0;

    // Retirement-checker outcome (RunOptions.check runs only).
    /** Main-thread retirements the checker compared (warm-up included;
     *  0 when checking was off). A divergence never returns: it is
     *  fatal at the divergence point. */
    std::uint64_t checkedRetired = 0;

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
        RingQueue<SeqNum> rob;          ///< fetch order, oldest first
        std::array<SeqNum, isa::numRegs> lastWriter{};
        unsigned icount = 0;            ///< in-flight count (ICOUNT)
        // Slice-thread fields.
        int sliceIdx = -1;
        SeqNum forkSeq = invalidSeqNum;
        unsigned loopIters = 0;
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
    void terminateSliceFetch(ThreadCtx &t);
    void releaseSliceThread(ThreadId tid);
    void handleLateResult(
        const slice::PredictionCorrelator::LateResult &late);
    SeqNum oldestInFlight() const;
    /** Earliest cycle at which a completion, a ready instruction or a
     *  fetch-stall expiry can make a stage act (noEvent when none is
     *  scheduled). */
    Cycle nextCoreEvent() const;
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
    bool profileEnabled_ = false;
    /** Structured-event sink for this run (null = off). */
    obs::EventBuffer *events_ = nullptr;
    /** Retirement-time architectural checker (null = off). */
    check::RetireChecker *checker_ = nullptr;

    // ---- dynamic state ----
    static constexpr Cycle noEvent = ~Cycle{0};
    Cycle cycle_ = 0;
    /** Set by every stage that changes state this cycle: a completion
     *  popped, an instruction issued, a fetch past the window-full
     *  check, a ROB head retired or refused by the write buffer, a
     *  slice released. A cycle that leaves it clear is quiet. */
    bool cycleActive_ = false;
    SeqNum nextSeq_ = 1;
    std::vector<ThreadCtx> threads_;
    /**
     * The in-flight instruction window, keyed by VN#: a ring of
     * recycled DynInst slots. fetchOne builds each instruction in its
     * slot, and a reused slot keeps its dependents buffer, so the
     * steady state allocates nothing. The live VN# range can exceed
     * the window size (a blocked ROB head holds it open while squashed
     * instructions leave gaps behind), so the ring doubles when a new
     * VN# does not fit, moving every slot. No stage may therefore hold
     * a DynInst pointer or reference across a fetch; erasing (retire,
     * squash) moves nothing.
     */
    IdRing<DynInst> inFlight_;
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
    /** Scratch for the per-cycle merge and drain (kept to reuse
     *  capacity). */
    std::vector<SeqNum> readyKept_;
    /** First cycle an entry issueStage kept in ready_ may issue. */
    Cycle readyWakeAt_ = noEvent;
    using Event = std::pair<Cycle, SeqNum>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        completions_;
    RingQueue<StoreUndo> storeUndoLog_;
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
