/**
 * @file
 * The public simulation facade: build a machine from a MachineConfig,
 * run a Workload, get a RunResult. Each run() uses fresh machine and
 * memory state so runs are independent and reproducible.
 *
 * Sampled runs: when RunOptions carries sampling state (fast-forward,
 * multiple regions, or a checkpoint to restore/save), run() drives an
 * arch::FastForward engine along the pristine architectural stream and
 * executes each timing region on a clone of the engine's state. The
 * clone matters: this core executes functionally at fetch, so a timing
 * run mutates its memory image ahead of retirement and can never share
 * state with the sampling stream. Region results are aggregated by
 * summing counters (IPC is then total-retired / total-cycles) and
 * taking the worst outcome.
 */

#ifndef SPECSLICE_SIM_SIMULATOR_HH
#define SPECSLICE_SIM_SIMULATOR_HH

#include "common/failure.hh"
#include "core/smt_core.hh"
#include "sim/workload.hh"

namespace specslice::sim
{

using MachineConfig = core::CoreConfig;
using RunOptions = core::RunOptions;
using RunResult = core::RunResult;
using SimOutcome = core::SimOutcome;
using core::outcomeName;
/** The typed exception panic()/fatal() raise under ScopedThrowErrors
 *  (defined in common/failure.hh; aliased here as the sim-facade
 *  name tools catch around Simulator::run). */
using SimError = specslice::SimError;

class Simulator
{
  public:
    explicit Simulator(const MachineConfig &cfg) : cfg_(cfg) {}

    /**
     * Simulate a workload. Dispatches to the sampling orchestrator
     * when opts carries sampling state (see the file comment).
     * @param with_slices load and execute the workload's speculative
     *        slices (overrides cfg.slicesEnabled for this run)
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
    struct RegionStart;

    /** One detailed timing run (from entry or a region snapshot).
     *  A region's memory image is moved into the run. */
    RunResult runOne(const Workload &wl, const RunOptions &opts,
                     bool with_slices, RegionStart *region);
    /** Fast-forward + sampled-region orchestration. */
    RunResult runSampled(const Workload &wl, const RunOptions &opts,
                         bool with_slices);

    MachineConfig cfg_;
};

/** Percent speedup of `other` over `base` (by cycle count). */
double speedupPct(const RunResult &base, const RunResult &other);

} // namespace specslice::sim

#endif // SPECSLICE_SIM_SIMULATOR_HH
