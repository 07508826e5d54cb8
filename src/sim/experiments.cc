#include "sim/experiments.hh"

#include "common/jsonio.hh"
#include "sim/result_cache.hh"
#include "sim/result_json.hh"
#include "sim/run_key.hh"
#include "workloads/workloads.hh"

namespace specslice::sim
{

RunResult
cachedRun(const MachineConfig &machine, Simulator &simr,
          const Workload &wl, const ExperimentConfig &cfg,
          const RunOptions &opts, bool with_slices)
{
    auto simulate = [&] {
        return with_slices ? simr.run(wl, opts, true)
                           : simr.runBaseline(wl, opts);
    };
    if (!cfg.cache)
        return simulate();

    RunKeyInputs in;
    in.workload = &wl;
    in.dataSeed = cfg.seed;
    in.config = &machine;
    in.options = &opts;
    in.withSlices = with_slices;
    const std::string key = runCacheKey(in);

    if (auto payload = cfg.cache->lookup(key)) {
        std::string err;
        auto doc = json::parse(*payload, err);
        RunResult r;
        if (doc && resultFromJson(*doc, r, err))
            return r;
        // Unreadable payload: treat as a miss and recompute below.
    }
    RunResult r = simulate();
    std::string err;
    cfg.cache->store(key, resultToJson(r), err);
    return r;
}

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
    RunResult res =
        cachedRun(machine, simr, wl, cfg, cfg.runOptions(true), false);

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
    RunResult base =
        cachedRun(machine, simr, wl, cfg, cfg.runOptions(true), false);
    auto prob = profile::classifyProblemInstructions(base.profile);

    RunOptions pp = cfg.runOptions();
    pp.perfect.branchPcs = prob.problemBranches;
    pp.perfect.loadPcs = prob.problemLoads;
    RunResult prob_perfect = cachedRun(machine, simr, wl, cfg, pp, false);

    RunOptions ap = cfg.runOptions();
    ap.perfect.allBranchesPerfect = true;
    ap.perfect.allLoadsPerfect = true;
    RunResult all_perfect = cachedRun(machine, simr, wl, cfg, ap, false);

    Figure1Row row;
    row.program = benchmark;
    row.baselineIpc = base.ipc();
    row.problemPerfectIpc = prob_perfect.ipc();
    row.allPerfectIpc = all_perfect.ipc();
    return row;
}

RunOptions
limitOptions(const Workload &wl, const ExperimentConfig &cfg)
{
    RunOptions o = cfg.runOptions();
    for (Addr pc : wl.coveredBranchPcs())
        o.perfect.branchPcs.insert(pc);
    for (Addr pc : wl.coveredLoadPcs())
        o.perfect.loadPcs.insert(pc);
    return o;
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
    row.base =
        cachedRun(machine, simr, wl, cfg, cfg.runOptions(), false);
    row.sliced =
        cachedRun(machine, simr, wl, cfg, cfg.runOptions(), true);
    row.limit = cachedRun(machine, simr, wl, cfg,
                          limitOptions(wl, cfg), false);
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
    row.base =
        cachedRun(machine, simr, wl, cfg, cfg.runOptions(), false);
    row.sliced =
        cachedRun(machine, simr, wl, cfg, cfg.runOptions(), true);
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
    double ld = speedupPct(row.base,
                           cachedRun(machine, simr, wl, cfg, lo, false));
    double br = speedupPct(row.base,
                           cachedRun(machine, simr, wl, cfg, bo, false));
    row.loadFraction = (ld + br) > 0.01 ? ld / (ld + br) : 0.0;

    return row;
}

} // namespace specslice::sim
