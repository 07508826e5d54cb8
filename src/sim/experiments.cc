#include "sim/experiments.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/logging.hh"
#include "workloads/workloads.hh"

namespace specslice::sim
{

Workload
buildBenchWorkload(const std::string &name, const ExperimentConfig &cfg)
{
    workloads::Params p;
    p.scale = cfg.workloadScale();
    p.seed = cfg.seed;
    return workloads::buildWorkload(name, p);
}

RunOptions
limitOptions(const Workload &wl, RunOptions opts)
{
    for (Addr pc : wl.coveredBranchPcs())
        opts.perfect.branchPcs.insert(pc);
    for (Addr pc : wl.coveredLoadPcs())
        opts.perfect.loadPcs.insert(pc);
    return opts;
}

namespace
{

/** Record-name suffixes, in PaperRole order. */
constexpr const char *roleNames[] = {
    "baseline", "all_perfect", "problem_perfect", "sliced", "limit",
    "covered_loads", "covered_branches",
};

/** Record-name machine fields, in PaperMachine order. */
constexpr const char *machineNames[] = {
    "4w", "8w", "4w_2ctx", "4w_3ctx", "4w_bias0", "4w_bias8",
    "4w_bias48", "4w_no_dead_stop", "4w_1slot", "4w_fork_gated",
    "4w_dedicated",
};

MachineConfig
machineConfig(PaperMachine m)
{
    MachineConfig c = m == PaperMachine::EightWide
                          ? MachineConfig::eightWide()
                          : MachineConfig::fourWide();
    switch (m) {
      case PaperMachine::FourWide:
      case PaperMachine::EightWide:
        break;
      case PaperMachine::TwoContexts:
        c.numThreads = 2;
        break;
      case PaperMachine::ThreeContexts:
        c.numThreads = 3;
        break;
      case PaperMachine::Bias0:
        c.mainThreadFetchBias = 0;
        break;
      case PaperMachine::Bias8:
        c.mainThreadFetchBias = 8;
        break;
      case PaperMachine::Bias48:
        c.mainThreadFetchBias = 48;
        break;
      case PaperMachine::NoDeadStop:
        c.terminateDeadSlices = false;
        break;
      case PaperMachine::OneSlotQueue:
        c.correlator.predsPerBranch = 1;
        break;
      case PaperMachine::ForkGated:
        c.forkConfidenceGating = true;
        break;
      case PaperMachine::Dedicated:
        c.dedicatedSliceResources = true;
        break;
    }
    return c;
}

/** An ablation's table rows, in order, and the machines of its sliced
 *  runs (the 4-wide one included: the table's default column). */
struct AblationSpec
{
    std::vector<std::string> workloads;
    std::vector<PaperMachine> machines;
};

constexpr PaperAblation allAblations[] = {
    PaperAblation::Correlator, PaperAblation::Fork, PaperAblation::Overhead,
};

const AblationSpec &
ablationSpec(PaperAblation a)
{
    using M = PaperMachine;
    static const AblationSpec specs[] = {
        {{"vpr", "twolf", "gzip", "eon", "gap"},
         {M::FourWide, M::NoDeadStop, M::OneSlotQueue}},
        {{"vpr", "gzip", "twolf", "mcf"},
         {M::TwoContexts, M::ThreeContexts, M::FourWide, M::Bias0, M::Bias8,
          M::Bias48}},
        {{"bzip2", "crafty", "gzip", "twolf", "vpr"},
         {M::FourWide, M::ForkGated, M::Dedicated}},
    };
    return specs[static_cast<int>(a)];
}

} // namespace

const Workload &
PaperPlan::workload(const std::string &name) const
{
    auto it = std::find(names_.begin(), names_.end(), name);
    SS_ASSERT(it != names_.end() && workloads_.size() == names_.size(),
              "workload '", name, "' is not in the plan");
    return workloads_[static_cast<std::size_t>(it - names_.begin())];
}

PaperRun
PaperPlan::runFor(const std::string &name, PaperRole role,
                  PaperMachine machine) const
{
    PaperRun r{name, machine, role == PaperRole::Sliced, {}};
    core::PerfectSpec &p = r.perfect;
    const Workload &wl = workload(name);
    if (role == PaperRole::AllPerfect)
        p.allBranchesPerfect = p.allLoadsPerfect = true;
    if (role == PaperRole::ProblemPerfect) {
        profile::ProblemInstructions prob = problems(name, machine);
        p.branchPcs = std::move(prob.problemBranches);
        p.loadPcs = std::move(prob.problemLoads);
    }
    if (role == PaperRole::Limit || role == PaperRole::CoveredBranches)
        for (Addr pc : wl.coveredBranchPcs())
            p.branchPcs.insert(pc);
    if (role == PaperRole::Limit || role == PaperRole::CoveredLoads)
        for (Addr pc : wl.coveredLoadPcs())
            p.loadPcs.insert(pc);
    return r;
}

const RunResult &
PaperPlan::result(const std::string &name, PaperRole role,
                  PaperMachine machine) const
{
    auto it = std::find(runs_.begin(), runs_.end(),
                        runFor(name, role, machine));
    SS_ASSERT(it != runs_.end(), "the plan has no ",
              machineNames[static_cast<int>(machine)], " ",
              roleNames[static_cast<int>(role)], " run of '", name, "'");
    return records_[static_cast<std::size_t>(it - runs_.begin())].result;
}

profile::ProblemInstructions
PaperPlan::problems(const std::string &name, PaperMachine machine) const
{
    return profile::classifyProblemInstructions(
        result(name, PaperRole::Baseline, machine).profile);
}

bool
PaperPlan::inTable4(const std::string &name) const
{
    if (workload(name).slices.empty())
        return false;
    // An n/a speedup (a run of no cycles) keeps its row.
    return !(speedupPct(result(name, PaperRole::Baseline),
                        result(name, PaperRole::Sliced)) <
             table4MinSpeedupPct);
}

double
PaperPlan::loadFraction(const std::string &name) const
{
    const RunResult &base = result(name, PaperRole::Baseline);
    double ld = speedupPct(base, result(name, PaperRole::CoveredLoads));
    double br = speedupPct(base, result(name, PaperRole::CoveredBranches));
    return (ld + br) > 0.01 ? ld / (ld + br) : 0.0;
}

std::vector<std::string>
PaperPlan::ablationWorkloads(PaperAblation a) const
{
    std::vector<std::string> rows;
    for (const std::string &name : ablationSpec(a).workloads)
        if (std::find(names_.begin(), names_.end(), name) != names_.end())
            rows.push_back(name);
    return rows;
}

void
PaperPlan::run(JobPool &pool)
{
    workloads_ = pool.map(names_, [&](const std::string &name) {
        return buildBenchWorkload(name, cfg_);
    });

    constexpr PaperMachine four = PaperMachine::FourWide;
    constexpr PaperMachine widths[] = {four, PaperMachine::EightWide};
    std::vector<Request> phase1;
    for (const std::string &name : names_) {
        for (PaperMachine m : widths) {
            phase1.push_back({name, PaperRole::Baseline, m});
            phase1.push_back({name, PaperRole::AllPerfect, m});
        }
        phase1.push_back({name, PaperRole::Sliced, four});
        phase1.push_back({name, PaperRole::Limit, four});
    }
    // An ablation's baseline and its 4-wide sliced run are the ones
    // above, so only its variant machines add runs.
    for (PaperAblation a : allAblations) {
        for (const std::string &name : ablationWorkloads(a)) {
            phase1.push_back({name, PaperRole::Baseline, four});
            for (PaperMachine m : ablationSpec(a).machines)
                phase1.push_back({name, PaperRole::Sliced, m});
        }
    }
    runPhase(pool, phase1);

    std::vector<Request> phase2;
    for (const std::string &name : names_) {
        for (PaperMachine m : widths)
            phase2.push_back({name, PaperRole::ProblemPerfect, m});
        if (inTable4(name)) {
            phase2.push_back({name, PaperRole::CoveredLoads, four});
            phase2.push_back({name, PaperRole::CoveredBranches, four});
        }
    }
    runPhase(pool, phase2);
}

void
PaperPlan::runPhase(JobPool &pool, const std::vector<Request> &requests)
{
    const std::size_t first = runs_.size();
    std::vector<std::string> labels;
    for (const Request &q : requests) {
        PaperRun r = runFor(q.workload, q.role, q.machine);
        if (std::find(runs_.begin(), runs_.end(), r) != runs_.end())
            continue;
        runs_.push_back(std::move(r));
        labels.push_back(q.workload + "." +
                         machineNames[static_cast<int>(q.machine)] + "." +
                         roleNames[static_cast<int>(q.role)]);
    }

    std::vector<std::size_t> todo(runs_.size() - first);
    std::iota(todo.begin(), todo.end(), first);
    std::vector<WorkloadPerf> done = pool.map(todo, [&](std::size_t i) {
        const PaperRun &r = runs_[i];
        RunOptions opts =
            cfg_.runOptions(!r.slices && !r.perfect.any());
        opts.perfect = r.perfect;
        Simulator simr(machineConfig(r.machine));
        WorkloadPerf p;
        p.name = labels[i - first];
        const auto t0 = std::chrono::steady_clock::now();
        p.result = simr.run(workload(r.workload), opts, r.slices);
        p.wallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        return p;
    });
    for (WorkloadPerf &p : done)
        records_.push_back(std::move(p));
}

} // namespace specslice::sim
