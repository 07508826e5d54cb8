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
                  bool wide) const
{
    PaperRun r{name, wide, role == PaperRole::Sliced, {}};
    core::PerfectSpec &p = r.perfect;
    const Workload &wl = workload(name);
    if (role == PaperRole::AllPerfect)
        p.allBranchesPerfect = p.allLoadsPerfect = true;
    if (role == PaperRole::ProblemPerfect) {
        profile::ProblemInstructions prob = problems(name, wide);
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
                  bool wide) const
{
    auto it = std::find(runs_.begin(), runs_.end(),
                        runFor(name, role, wide));
    SS_ASSERT(it != runs_.end(), "the plan has no ",
              roleNames[static_cast<int>(role)], " run of '", name, "'");
    return records_[static_cast<std::size_t>(it - runs_.begin())].result;
}

profile::ProblemInstructions
PaperPlan::problems(const std::string &name, bool wide) const
{
    return profile::classifyProblemInstructions(
        result(name, PaperRole::Baseline, wide).profile);
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

void
PaperPlan::run(JobPool &pool)
{
    workloads_ = pool.map(names_, [&](const std::string &name) {
        return buildBenchWorkload(name, cfg_);
    });

    std::vector<Request> phase1;
    for (const std::string &name : names_) {
        for (bool wide : {false, true}) {
            phase1.push_back({name, PaperRole::Baseline, wide});
            phase1.push_back({name, PaperRole::AllPerfect, wide});
        }
        phase1.push_back({name, PaperRole::Sliced, false});
        phase1.push_back({name, PaperRole::Limit, false});
    }
    runPhase(pool, phase1);

    std::vector<Request> phase2;
    for (const std::string &name : names_) {
        for (bool wide : {false, true})
            phase2.push_back({name, PaperRole::ProblemPerfect, wide});
        if (inTable4(name)) {
            phase2.push_back({name, PaperRole::CoveredLoads, false});
            phase2.push_back({name, PaperRole::CoveredBranches, false});
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
        PaperRun r = runFor(q.workload, q.role, q.wide);
        if (std::find(runs_.begin(), runs_.end(), r) != runs_.end())
            continue;
        runs_.push_back(std::move(r));
        labels.push_back(q.workload + (q.wide ? ".8w." : ".4w.") +
                         roleNames[static_cast<int>(q.role)]);
    }

    std::vector<std::size_t> todo(runs_.size() - first);
    std::iota(todo.begin(), todo.end(), first);
    std::vector<WorkloadPerf> done = pool.map(todo, [&](std::size_t i) {
        const PaperRun &r = runs_[i];
        RunOptions opts =
            cfg_.runOptions(!r.slices && !r.perfect.any());
        opts.perfect = r.perfect;
        Simulator simr(r.wide ? MachineConfig::eightWide()
                              : MachineConfig::fourWide());
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
