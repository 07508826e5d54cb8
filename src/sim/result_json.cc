#include "sim/result_json.hh"

#include "common/logging.hh"
#include "obs/interval.hh"
#include "sim/simulator.hh"

namespace specslice::sim
{

using json::JsonObject;
using json::jsonArray;

check::Digest::Section
digestSection(const std::string &config, const RunResult &r)
{
    check::Digest::Section s;
    s.config = config;
    auto &c = s.counters;
    c["cycles"] = r.cycles;
    c["main_retired"] = r.mainRetired;
    c["main_fetched"] = r.mainFetched;
    c["main_fetched_wrongpath"] = r.mainFetchedWrongPath;
    c["slice_fetched"] = r.sliceFetched;
    c["slice_retired"] = r.sliceRetired;
    c["cond_branches"] = r.condBranches;
    c["mispredictions"] = r.mispredictions;
    c["main_loads"] = r.loads;
    c["l1d_misses_main"] = r.l1dMissesMain;
    c["covered_misses"] = r.coveredMisses;
    c["slice_prefetches"] = r.slicePrefetches;
    c["forks"] = r.forks;
    c["forks_squashed"] = r.forksSquashed;
    c["forks_ignored"] = r.forksIgnored;
    c["predictions_generated"] = r.predictionsGenerated;
    c["correlator_used"] = r.correlatorUsed;
    c["correlator_wrong"] = r.correlatorWrong;
    c["late_predictions"] = r.latePredictions;
    c["late_reversals"] = r.lateReversals;
    // Every detail counter rides along (prefixed: several share names
    // with the top-level fields above), so any behavioural drift in
    // any subsystem shows up in the diff.
    for (const auto &[k, v] : r.detail.counters())
        c["detail." + k] = v.value();
    s.ratios["ipc"] = r.ipc();
    return s;
}

json::JsonObject
perfRecord(const WorkloadPerf &p)
{
    JsonObject o;
    o.field("name", p.name)
        .field("cycles", p.result.cycles)
        .field("main_retired", p.result.mainRetired)
        .field("ipc", p.result.ipc())
        .field("wall_seconds", p.wallSeconds)
        .field("sim_insts_per_sec", p.instsPerSec())
        .field("cond_branches", p.result.condBranches)
        .field("mispredictions", p.result.mispredictions)
        .field("loads", p.result.loads)
        .field("l1d_misses_main", p.result.l1dMissesMain)
        .field("covered_misses", p.result.coveredMisses)
        .field("forks", p.result.forks)
        .field("correlator_used", p.result.correlatorUsed)
        .field("outcome", std::string(outcomeName(p.result.outcome)));
    if (p.result.sampledRegions) {
        o.field("fast_forwarded", p.result.fastForwarded)
            .field("sampled_regions",
                   std::uint64_t{p.result.sampledRegions});
    }
    if (!p.result.intervals.empty())
        o.raw("intervals", obs::intervalsToJson(p.result.intervals));
    return o;
}

SimOutcome
worstOutcome(const std::vector<WorkloadPerf> &runs)
{
    SimOutcome worst = SimOutcome::Completed;
    for (const WorkloadPerf &p : runs)
        if (isWorseOutcome(p.result.outcome, worst))
            worst = p.result.outcome;
    return worst;
}

std::string
perfDocument(const DocMeta &meta, const std::vector<WorkloadPerf> &runs)
{
    SS_ASSERT(!runs.empty(), "perfDocument needs at least one run");
    std::uint64_t checked = 0;
    for (const WorkloadPerf &p : runs)
        checked += p.result.checkedRetired;
    SimOutcome worst = worstOutcome(runs);
    const RunResult &result = runs.back().result;

    std::vector<std::string> elems;
    for (const WorkloadPerf &p : runs)
        elems.push_back(perfRecord(p).str());

    JsonObject doc;
    doc.field("schema_version", resultSchemaVersion)
        .field("workload", meta.workload)
        .field("width", std::uint64_t{meta.width})
        .field("insts", meta.insts)
        .field("warmup", meta.warmup)
        .field("seed", meta.seed)
        .field("outcome", std::string(outcomeName(worst)))
        .raw("runs", jsonArray(elems));
    if (result.sampledRegions)
        doc.field("fast_forwarded", result.fastForwarded)
            .field("sampled_regions",
                   std::uint64_t{result.sampledRegions});
    if (meta.compare && runs.size() >= 2)
        doc.field("speedup_pct",
                  speedupPct(runs[0].result, runs[1].result));
    if (checked)
        doc.field("checked_retired", checked);
    return doc.str();
}

std::string
errorDocument(const std::string &workload, std::uint64_t seed,
              const std::string &kind, const std::string &message)
{
    JsonObject err;
    err.field("kind", kind).field("message", message);
    JsonObject doc;
    doc.field("schema_version", resultSchemaVersion)
        .field("workload", workload)
        .field("seed", seed)
        .raw("error", err.str());
    return doc.str();
}

} // namespace specslice::sim
