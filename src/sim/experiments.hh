/**
 * @file
 * The experiment library: each of the paper's evaluation artifacts
 * (Table 2, Figure 1, Figure 11, Table 4) as a reusable function that
 * takes a machine configuration and a benchmark name and returns the
 * row's data. The bench/ binaries are thin formatters over these, and
 * the integration tests exercise them directly.
 */

#ifndef SPECSLICE_SIM_EXPERIMENTS_HH
#define SPECSLICE_SIM_EXPERIMENTS_HH

#include <optional>
#include <string>

#include "profile/pde_profile.hh"
#include "sim/simulator.hh"
#include "sim/workload.hh"

namespace specslice::sim
{

class ResultCache;

/** Common run-length knobs for all experiments. */
struct ExperimentConfig
{
    std::uint64_t measureInsts = 300'000;
    std::uint64_t warmupInsts = 100'000;
    std::uint64_t seed = 1;
    /**
     * Optional content-addressed result store (bench --cache DIR,
     * specslice_verify --cache DIR). When set, every
     * experiment-library simulation goes through cachedRun: a hit
     * restores the full RunResult without simulating, a miss runs and
     * commits. Not owned.
     */
    ResultCache *cache = nullptr;

    std::uint64_t
    workloadScale() const
    {
        return (measureInsts + warmupInsts) * 2;
    }

    RunOptions
    runOptions(bool profile = false) const
    {
        RunOptions o;
        o.maxMainInstructions = measureInsts;
        o.warmupInstructions = warmupInsts;
        o.profile = profile;
        return o;
    }
};

/**
 * Run `wl` on `simr` (built from `machine`) — or serve the result from
 * cfg.cache when an entry keyed by (workload, machine, opts, slices,
 * binary) exists. A corrupt cached payload is re-simulated, never
 * served. With cfg.cache unset this is exactly simr.run/runBaseline.
 */
RunResult cachedRun(const MachineConfig &machine, Simulator &simr,
                    const Workload &wl, const ExperimentConfig &cfg,
                    const RunOptions &opts, bool with_slices);

/** Build the named workload at the experiment's scale/seed. */
Workload buildBenchWorkload(const std::string &name,
                            const ExperimentConfig &cfg);

// ---------------------------------------------------------------
// Table 2: problem-instruction coverage of PDEs.
// ---------------------------------------------------------------
struct Table2Row
{
    std::string program;
    profile::ProblemInstructions problem;
    /** Too few misses to report memory-side numbers (eon's case). */
    bool insufficientMisses = false;
};

Table2Row runTable2Row(const MachineConfig &machine,
                       const std::string &benchmark,
                       const ExperimentConfig &cfg);

// ---------------------------------------------------------------
// Figure 1: baseline vs problem-perfect vs all-perfect IPC.
// ---------------------------------------------------------------
struct Figure1Row
{
    std::string program;
    double baselineIpc = 0;
    double problemPerfectIpc = 0;
    double allPerfectIpc = 0;
};

Figure1Row runFigure1Row(const MachineConfig &machine,
                         const std::string &benchmark,
                         const ExperimentConfig &cfg);

// ---------------------------------------------------------------
// Figure 11: slice-assisted speedup + constrained limit study.
// ---------------------------------------------------------------
struct Figure11Row
{
    std::string program;
    RunResult base;
    RunResult sliced;
    RunResult limit;

    double slicePct() const;
    double limitPct() const;
};

Figure11Row runFigure11Row(const MachineConfig &machine,
                           const std::string &benchmark,
                           const ExperimentConfig &cfg);

/** Run options that magically perfect the slice-covered PCs. */
RunOptions limitOptions(const Workload &wl, const ExperimentConfig &cfg);

// ---------------------------------------------------------------
// Table 4: detailed base vs base+slices characterization.
// ---------------------------------------------------------------
struct Table4Row
{
    std::string program;
    RunResult base;
    RunResult sliced;
    double speedupPercent = 0;
    double mispredRemovedPct = 0;
    double missRemovedPct = 0;
    double latePct = 0;
    /** Fraction of the (limit-decomposed) speedup due to loads. */
    double loadFraction = 0;
};

/**
 * @return the Table 4 row, or nullopt if the benchmark has no slices
 * or its speedup is below min_speedup_pct (the paper's table keeps
 * only the non-trivial speedups).
 */
std::optional<Table4Row> runTable4Row(const MachineConfig &machine,
                                      const std::string &benchmark,
                                      const ExperimentConfig &cfg,
                                      double min_speedup_pct = 2.0);

} // namespace specslice::sim

#endif // SPECSLICE_SIM_EXPERIMENTS_HH
