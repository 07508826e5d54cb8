#include "sim/experiments.hh"

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

Table2Row
runTable2Row(const MachineConfig &machine, const std::string &benchmark,
             const ExperimentConfig &cfg)
{
    Workload wl = buildBenchWorkload(benchmark, cfg);
    Simulator simr(machine);
    RunResult res = simr.runBaseline(wl, cfg.runOptions(true));

    Table2Row row;
    row.program = benchmark;
    row.problem = profile::classifyProblemInstructions(res.profile);
    row.insufficientMisses = row.problem.l1Misses < 200;
    return row;
}

Figure1Row
runFigure1Row(const MachineConfig &machine, const std::string &benchmark,
              const ExperimentConfig &cfg)
{
    Workload wl = buildBenchWorkload(benchmark, cfg);
    Simulator simr(machine);

    // Baseline doubles as the profiling run that identifies the
    // problem instructions (Section 2.2).
    RunResult base = simr.runBaseline(wl, cfg.runOptions(true));
    auto prob = profile::classifyProblemInstructions(base.profile);

    RunOptions pp = cfg.runOptions();
    pp.perfect.branchPcs = prob.problemBranches;
    pp.perfect.loadPcs = prob.problemLoads;
    RunResult prob_perfect = simr.runBaseline(wl, pp);

    RunOptions ap = cfg.runOptions();
    ap.perfect.allBranchesPerfect = true;
    ap.perfect.allLoadsPerfect = true;
    RunResult all_perfect = simr.runBaseline(wl, ap);

    Figure1Row row;
    row.program = benchmark;
    row.baselineIpc = base.ipc();
    row.problemPerfectIpc = prob_perfect.ipc();
    row.allPerfectIpc = all_perfect.ipc();
    return row;
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

double
Figure11Row::slicePct() const
{
    return speedupPct(base, sliced);
}

double
Figure11Row::limitPct() const
{
    return speedupPct(base, limit);
}

Figure11Row
runFigure11Row(const MachineConfig &machine,
               const std::string &benchmark, const ExperimentConfig &cfg)
{
    Workload wl = buildBenchWorkload(benchmark, cfg);
    Simulator simr(machine);

    Figure11Row row;
    row.program = benchmark;
    row.base = simr.runBaseline(wl, cfg.runOptions());
    row.sliced = simr.run(wl, cfg.runOptions(), true);
    row.limit = simr.runBaseline(wl, limitOptions(wl, cfg.runOptions()));
    return row;
}

std::optional<Table4Row>
runTable4Row(const MachineConfig &machine, const std::string &benchmark,
             const ExperimentConfig &cfg, double min_speedup_pct)
{
    Workload wl = buildBenchWorkload(benchmark, cfg);
    if (wl.slices.empty())
        return std::nullopt;

    Simulator simr(machine);
    Table4Row row;
    row.program = benchmark;
    row.base = simr.runBaseline(wl, cfg.runOptions());
    row.sliced = simr.run(wl, cfg.runOptions(), true);
    row.speedupPercent = speedupPct(row.base, row.sliced);
    if (row.speedupPercent < min_speedup_pct)
        return std::nullopt;

    auto pct_removed = [](std::uint64_t before, std::uint64_t after) {
        if (before == 0)
            return 0.0;
        return 100.0 *
               (static_cast<double>(before) -
                static_cast<double>(after)) /
               static_cast<double>(before);
    };
    row.mispredRemovedPct =
        pct_removed(row.base.mispredictions, row.sliced.mispredictions);
    row.missRemovedPct =
        pct_removed(row.base.l1dMissesMain, row.sliced.l1dMissesMain);
    std::uint64_t binds =
        row.sliced.latePredictions + row.sliced.correlatorUsed;
    row.latePct = binds ? 100.0 *
                              static_cast<double>(
                                  row.sliced.latePredictions) /
                              static_cast<double>(binds)
                        : 0.0;

    // Load-vs-branch decomposition via the per-static perfect modes.
    RunOptions lo = cfg.runOptions();
    for (Addr pc : wl.coveredLoadPcs())
        lo.perfect.loadPcs.insert(pc);
    RunOptions bo = cfg.runOptions();
    for (Addr pc : wl.coveredBranchPcs())
        bo.perfect.branchPcs.insert(pc);
    double ld = speedupPct(row.base, simr.runBaseline(wl, lo));
    double br = speedupPct(row.base, simr.runBaseline(wl, bo));
    row.loadFraction = (ld + br) > 0.01 ? ld / (ld + br) : 0.0;

    return row;
}

} // namespace specslice::sim
