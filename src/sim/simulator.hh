/**
 * @file
 * The public simulation facade: build a machine from a MachineConfig,
 * run a Workload, get a RunResult. Each run() uses fresh machine and
 * memory state so runs are independent and reproducible.
 *
 * Every detailed run starts from one arch::Checkpoint. A full run's is
 * the workload entry: the entry PC, zero registers, the image the
 * workload's initMemory builds and empty warmth logs.
 *
 * Sampled runs: when RunOptions carries sampling state (fast-forward,
 * multiple regions, or a checkpoint to restore/save), run() drives an
 * arch::FastForward engine along the pristine architectural stream and
 * starts each timing region from the engine's makeCheckpoint(), a
 * clone of its state with its warmth logs. The clone matters: this
 * core executes functionally at fetch, so a timing run mutates its
 * memory image ahead of retirement and can never share state with the
 * sampling stream. Region results are aggregated by summing counters
 * (IPC is then total-retired / total-cycles) and taking the worst
 * outcome.
 */

#ifndef SPECSLICE_SIM_SIMULATOR_HH
#define SPECSLICE_SIM_SIMULATOR_HH

#include <string>

#include "arch/checkpoint.hh"
#include "common/failure.hh"
#include "core/smt_core.hh"
#include "sim/workload.hh"

namespace specslice::sim
{

using MachineConfig = core::CoreConfig;
using RunResult = core::RunResult;
using SimOutcome = core::SimOutcome;
using core::isWorseOutcome;
using core::outcomeName;
/** The typed exception panic()/fatal() raise under ScopedThrowErrors
 *  (defined in common/failure.hh; aliased here as the sim-facade
 *  name tools catch around Simulator::run). */
using SimError = specslice::SimError;

/**
 * Options for one Simulator::run: what the core reads (the base), plus
 * the checker flag, sampling knobs and checkpoint paths the simulator
 * interprets. runOne hands the core only its own half.
 */
struct RunOptions : core::RunOptions
{
    RunOptions() = default;
    /** These core options, every simulator knob at its default. */
    RunOptions(const core::RunOptions &core) : core::RunOptions(core) {}

    // ---- checking (the simulator builds one checker per run) ----
    /** Co-simulate with the retirement checker (also forced on for
     *  every run by SS_CHECK=1 in the environment). A divergence is
     *  an SS_FATAL carrying the first-divergence report. */
    bool check = false;

    // ---- sampling (the simulator owns the fast-forward engine and
    //      region orchestration) ----
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
    /** Load the starting architectural state from this checkpoint file
     *  ("" = start at the workload entry). */
    std::string restoreCheckpoint;
    /** After fast-forwarding, save the pre-region architectural state
     *  here ("" = don't). */
    std::string saveCheckpoint;
};

class Simulator
{
  public:
    explicit Simulator(const MachineConfig &cfg) : cfg_(cfg) {}

    /**
     * Simulate a workload. Dispatches to the sampling orchestrator
     * when opts carries sampling state (see the file comment).
     * @param with_slices load and execute the workload's speculative
     *        slices
     */
    RunResult run(const Workload &wl, const RunOptions &opts,
                  bool with_slices);

    /** Convenience: baseline run (no slices). */
    RunResult
    runBaseline(const Workload &wl, const RunOptions &opts)
    {
        return run(wl, opts, false);
    }

    /** @return true if opts requests the sampling orchestrator. */
    static bool
    sampled(const RunOptions &opts)
    {
        return opts.fastForwardInstructions != 0 ||
               opts.sampleRegions > 1 ||
               !opts.restoreCheckpoint.empty() ||
               !opts.saveCheckpoint.empty();
    }

    const MachineConfig &config() const { return cfg_; }

  private:
    /** One detailed timing run from start (the workload entry or a
     *  sampled region's checkpoint). The run takes start's image. */
    RunResult runOne(const Workload &wl, const RunOptions &opts,
                     bool with_slices, arch::Checkpoint &start);
    /** Fast-forward + sampled-region orchestration. */
    RunResult runSampled(const Workload &wl, const RunOptions &opts,
                         bool with_slices);

    MachineConfig cfg_;
};

/** Percent speedup of `other` over `base` (by cycle count). */
double speedupPct(const RunResult &base, const RunResult &other);

} // namespace specslice::sim

#endif // SPECSLICE_SIM_SIMULATOR_HH
