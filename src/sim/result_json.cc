#include "sim/result_json.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/interval.hh"
#include "sim/simulator.hh"

namespace specslice::sim
{

using json::JsonObject;
using json::Value;
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
    if (p.result.faultsInjected) {
        o.field("faults_injected", p.result.faultsInjected)
            .field("fault_summary", p.result.faultSummary);
    }
    if (p.result.sampledRegions) {
        o.field("fast_forwarded", p.result.fastForwarded)
            .field("sampled_regions",
                   std::uint64_t{p.result.sampledRegions});
    }
    if (!p.result.intervals.empty())
        o.raw("intervals", obs::intervalsToJson(p.result.intervals));
    return o;
}

int
outcomeSeverity(SimOutcome oc)
{
    switch (oc) {
      case SimOutcome::Completed:
        return 0;
      case SimOutcome::CycleLimit:
        return 1;
      case SimOutcome::Watchdog:
        return 2;
      case SimOutcome::CheckerDivergence:
        return 3;
      case SimOutcome::Fault:
        return 4;
    }
    return 4;
}

SimOutcome
worstOutcome(const std::vector<WorkloadPerf> &runs)
{
    SimOutcome worst = SimOutcome::Completed;
    for (const WorkloadPerf &p : runs)
        if (outcomeSeverity(p.result.outcome) > outcomeSeverity(worst))
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
    if (!meta.injectDescription.empty())
        doc.field("inject", meta.injectDescription);
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

namespace
{

SimOutcome
outcomeFromName(const std::string &name)
{
    for (SimOutcome o :
         {SimOutcome::Completed, SimOutcome::CycleLimit,
          SimOutcome::Watchdog, SimOutcome::CheckerDivergence,
          SimOutcome::Fault}) {
        if (name == outcomeName(o))
            return o;
    }
    return SimOutcome::Fault;
}

/** The named RunResult counters, in emission order. One table drives
 *  both directions so a field can't be written and then dropped on
 *  read-back. */
struct CounterField
{
    const char *key;
    std::uint64_t RunResult::*member;
};

constexpr CounterField counterFields[] = {
    {"faults_injected", &RunResult::faultsInjected},
    {"main_retired", &RunResult::mainRetired},
    {"main_fetched", &RunResult::mainFetched},
    {"main_fetched_wrong_path", &RunResult::mainFetchedWrongPath},
    {"slice_fetched", &RunResult::sliceFetched},
    {"slice_retired", &RunResult::sliceRetired},
    {"cond_branches", &RunResult::condBranches},
    {"mispredictions", &RunResult::mispredictions},
    {"loads", &RunResult::loads},
    {"l1d_misses_main", &RunResult::l1dMissesMain},
    {"covered_misses", &RunResult::coveredMisses},
    {"slice_prefetches", &RunResult::slicePrefetches},
    {"forks", &RunResult::forks},
    {"forks_squashed", &RunResult::forksSquashed},
    {"forks_ignored", &RunResult::forksIgnored},
    {"predictions_generated", &RunResult::predictionsGenerated},
    {"correlator_used", &RunResult::correlatorUsed},
    {"correlator_wrong", &RunResult::correlatorWrong},
    {"late_predictions", &RunResult::latePredictions},
    {"late_reversals", &RunResult::lateReversals},
    {"fast_forwarded", &RunResult::fastForwarded},
    {"checked_retired", &RunResult::checkedRetired},
};

std::string
intervalsRecordJson(const std::vector<obs::IntervalRecord> &records)
{
    return obs::intervalsToJson(records);
}

bool
intervalsFromJson(const Value &arr,
                  std::vector<obs::IntervalRecord> &out)
{
    if (!arr.isArray())
        return false;
    out.clear();
    out.reserve(arr.items.size());
    for (const Value &e : arr.items) {
        if (!e.isObject())
            return false;
        obs::IntervalRecord r;
        r.index = e.getU64("interval");
        r.startCycle = e.getU64("start_cycle");
        r.endCycle = e.getU64("end_cycle");
        r.retired = e.getU64("retired");
        r.loads = e.getU64("loads");
        r.l1dMisses = e.getU64("l1d_misses");
        r.l2Misses = e.getU64("l2_misses");
        r.condBranches = e.getU64("cond_branches");
        r.mispredictions = e.getU64("mispredictions");
        r.forks = e.getU64("forks");
        r.predsGenerated = e.getU64("preds_generated");
        r.predsBound = e.getU64("preds_bound");
        r.predsUsed = e.getU64("preds_used");
        r.predsKilled = e.getU64("preds_killed");
        out.push_back(r);
    }
    return true;
}

std::string
profileToJson(const core::PcProfile &profile)
{
    // Deterministic order: sort by PC (the map is unordered).
    std::vector<std::pair<Addr, core::PcProfile::Counts>> rows(
        profile.perPc.begin(), profile.perPc.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    std::vector<std::string> elems;
    elems.reserve(rows.size());
    for (const auto &[pc, c] : rows) {
        JsonObject o;
        o.field("pc", std::uint64_t{pc})
            .field("branch_exec", c.branchExec)
            .field("branch_mispred", c.branchMispred)
            .field("load_exec", c.loadExec)
            .field("load_miss", c.loadMiss)
            .field("store_exec", c.storeExec)
            .field("store_miss", c.storeMiss);
        elems.push_back(o.str());
    }
    return jsonArray(elems);
}

bool
profileFromJson(const Value &arr, core::PcProfile &out)
{
    if (!arr.isArray())
        return false;
    out.perPc.clear();
    for (const Value &e : arr.items) {
        if (!e.isObject())
            return false;
        core::PcProfile::Counts c;
        c.branchExec = e.getU64("branch_exec");
        c.branchMispred = e.getU64("branch_mispred");
        c.loadExec = e.getU64("load_exec");
        c.loadMiss = e.getU64("load_miss");
        c.storeExec = e.getU64("store_exec");
        c.storeMiss = e.getU64("store_miss");
        out.perPc.emplace(static_cast<Addr>(e.getU64("pc")), c);
    }
    return true;
}

} // namespace

std::string
resultToJson(const RunResult &r)
{
    JsonObject o;
    o.field("outcome", std::string(outcomeName(r.outcome)));
    if (!r.diagnosis.empty())
        o.field("diagnosis", r.diagnosis);
    if (!r.faultSummary.empty())
        o.field("fault_summary", r.faultSummary);
    o.field("cycles", r.cycles);
    for (const CounterField &f : counterFields)
        o.field(f.key, r.*(f.member));
    o.field("sampled_regions", std::uint64_t{r.sampledRegions});
    if (r.checkDiverged) {
        o.field("check_diverged", std::uint64_t{1})
            .field("check_report", r.checkReport);
    }

    std::vector<std::string> detail;
    for (const auto &[name, stat] : r.detail.counters()) {
        detail.push_back(JsonObject()
                             .field("name", name)
                             .field("value", stat.value())
                             .str());
    }
    if (!detail.empty())
        o.raw("detail", jsonArray(detail));
    if (!r.intervals.empty())
        o.raw("intervals", intervalsRecordJson(r.intervals));
    if (!r.profile.perPc.empty())
        o.raw("profile", profileToJson(r.profile));
    return o.str();
}

bool
resultFromJson(const Value &doc, RunResult &out, std::string &error)
{
    if (!doc.isObject()) {
        error = "result document is not an object";
        return false;
    }
    const Value *outcome = doc.get("outcome");
    if (!outcome || !outcome->isString()) {
        error = "result document lacks an outcome";
        return false;
    }
    out = RunResult();
    out.outcome = outcomeFromName(outcome->str);
    out.diagnosis = doc.getStr("diagnosis");
    out.faultSummary = doc.getStr("fault_summary");
    out.cycles = doc.getU64("cycles");
    for (const CounterField &f : counterFields)
        out.*(f.member) = doc.getU64(f.key);
    out.sampledRegions =
        static_cast<unsigned>(doc.getU64("sampled_regions"));
    out.checkDiverged = doc.getU64("check_diverged") != 0;
    out.checkReport = doc.getStr("check_report");

    if (const Value *detail = doc.get("detail")) {
        if (!detail->isArray()) {
            error = "detail is not an array";
            return false;
        }
        for (const Value &e : detail->items) {
            if (!e.isObject() || !e.get("name")) {
                error = "malformed detail entry";
                return false;
            }
            out.detail.set(e.getStr("name"), e.getU64("value"));
        }
    }
    if (const Value *iv = doc.get("intervals")) {
        if (!intervalsFromJson(*iv, out.intervals)) {
            error = "malformed intervals array";
            return false;
        }
    }
    if (const Value *prof = doc.get("profile")) {
        if (!profileFromJson(*prof, out.profile)) {
            error = "malformed profile array";
            return false;
        }
    }
    return true;
}

} // namespace specslice::sim
