/**
 * @file
 * The experiment library: the run lengths of a sweep, and the paper's
 * evaluation (Tables 2 and 4, Figures 1 and 11, and the Section 6.1
 * and 6.3 ablations) as one plan that runs each distinct simulation
 * once. bench/bench_paper renders the tables from its results, and the
 * integration tests query them directly.
 */

#ifndef SPECSLICE_SIM_EXPERIMENTS_HH
#define SPECSLICE_SIM_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "profile/pde_profile.hh"
#include "sim/job_pool.hh"
#include "sim/result_json.hh"
#include "sim/simulator.hh"
#include "sim/workload.hh"

namespace specslice::sim
{

/** Common run-length knobs for all experiments. */
struct ExperimentConfig
{
    std::uint64_t measureInsts = 300'000;
    std::uint64_t warmupInsts = 100'000;
    std::uint64_t seed = 1;

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

/** Build the named workload at the experiment's scale/seed. */
Workload buildBenchWorkload(const std::string &name,
                            const ExperimentConfig &cfg);

/** opts, extended to magically perfect the slice-covered PCs. */
RunOptions limitOptions(const Workload &wl, RunOptions opts);

/** What a run of the paper sweep is for; it sets the run's options. */
enum class PaperRole
{
    Baseline,         ///< no slices, profiled (Table 2, every base)
    AllPerfect,       ///< Figure 1: every branch and load perfect
    ProblemPerfect,   ///< Figure 1: the baseline's problem PCs perfect
    Sliced,           ///< Figure 11, Table 4: with the slices
    Limit,            ///< Figure 11: the slices' covered PCs perfect
    CoveredLoads,     ///< Table 4: only the covered loads perfect
    CoveredBranches,  ///< Table 4: only the covered branches perfect
};

/**
 * The machine a run of the sweep is made on: Table 1's 4- or 8-wide
 * machine, or an ablation's variant of the 4-wide one.
 */
enum class PaperMachine
{
    FourWide,
    EightWide,
    TwoContexts,    ///< 1 idle helper context
    ThreeContexts,  ///< 2 idle helper contexts
    Bias0,          ///< ICOUNT main-thread fetch bias 0
    Bias8,          ///< ICOUNT main-thread fetch bias 8
    Bias48,         ///< ICOUNT main-thread fetch bias 48
    NoDeadStop,     ///< no dead-slice termination
    OneSlotQueue,   ///< 1 prediction slot per branch
    ForkGated,      ///< fork-confidence gating
    Dedicated,      ///< dedicated slice fetch, window and issue
};

/**
 * Sections 6.1 and 6.3's ablations: sliced runs on variant machines of
 * a fixed workload list, each against the 4-wide baseline.
 */
enum class PaperAblation
{
    Correlator,  ///< dead-slice termination and branch-queue depth
    Fork,        ///< helper contexts and ICOUNT bias
    Overhead,    ///< fork-confidence gating and dedicated resources
};

/** One simulation of the sweep, by value: equal runs are one run. */
struct PaperRun
{
    std::string workload;
    PaperMachine machine = PaperMachine::FourWide;
    bool slices = false;
    core::PerfectSpec perfect;

    bool operator==(const PaperRun &) const = default;
};

/**
 * The paper's evaluation as one set of simulations. Every baseline is
 * profiled, because profiling changes no simulated counter: each
 * width's profiling run is that width's baseline everywhere.
 */
class PaperPlan
{
  public:
    /** Table 4 omits slice speedups below this (as the paper does). */
    static constexpr double table4MinSpeedupPct = 2.0;

    PaperPlan(const ExperimentConfig &cfg,
              std::vector<std::string> workloads)
        : cfg_(cfg), names_(std::move(workloads))
    {
    }

    /**
     * Build the workloads and run the sweep on pool. Phase 1 runs both
     * widths' baselines and all-perfect runs, the 4-wide sliced and
     * limit runs and the ablations' runs; phase 2, the problem-perfect
     * runs from the baseline profiles and Table 4's covered-loads and
     * covered-branches runs. A run equal to one already made is not
     * made again.
     */
    void run(JobPool &pool);

    const ExperimentConfig &config() const { return cfg_; }
    const std::vector<std::string> &workloadNames() const
    {
        return names_;
    }
    const Workload &workload(const std::string &name) const;

    /** The run that plays role for the workload on a machine, and its
     *  result. */
    PaperRun runFor(const std::string &name, PaperRole role,
                    PaperMachine machine = PaperMachine::FourWide) const;
    const RunResult &
    result(const std::string &name, PaperRole role,
           PaperMachine machine = PaperMachine::FourWide) const;

    /** Table 2: the problem instructions of the baseline profile. */
    profile::ProblemInstructions
    problems(const std::string &name,
             PaperMachine machine = PaperMachine::FourWide) const;
    /** Table 4's rows: slices reaching table4MinSpeedupPct. */
    bool inTable4(const std::string &name) const;
    /** Table 4: the covered loads' share of the covered-loads plus
     *  covered-branches speedups. */
    double loadFraction(const std::string &name) const;

    /** The ablation's table rows: its fixed workload list, cut to the
     *  plan's. */
    std::vector<std::string> ablationWorkloads(PaperAblation a) const;

    /** Every distinct run in the order it ran, each named
     *  "workload.machine.role" after the first request for it; the
     *  machine is "4w", "8w" or a variant such as "4w_bias0". */
    const std::vector<WorkloadPerf> &records() const { return records_; }

  private:
    struct Request
    {
        std::string workload;
        PaperRole role;
        PaperMachine machine;
    };
    void runPhase(JobPool &pool, const std::vector<Request> &requests);

    ExperimentConfig cfg_;
    std::vector<std::string> names_;
    std::vector<Workload> workloads_;  ///< parallel to names_
    std::vector<PaperRun> runs_;
    std::vector<WorkloadPerf> records_;  ///< parallel to runs_
};

} // namespace specslice::sim

#endif // SPECSLICE_SIM_EXPERIMENTS_HH
