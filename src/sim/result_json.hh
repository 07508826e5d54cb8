/**
 * @file
 * RunResult <-> JSON.
 *
 * Two kinds of documents share this file:
 *
 *  - The per-workload *record* (perfRecord) and the specslice_run
 *    --json document built from it (perfDocument): the stable,
 *    human-facing rows emitted by specslice_run --json and
 *    BENCH_*.json.
 *
 *  - The *full* result document (resultToJson/resultFromJson): a
 *    lossless round-trip of RunResult used as the result-cache
 *    payload. It carries every named counter, the detail StatGroup,
 *    intervals, the per-PC profile, and checker/sampling provenance,
 *    so a cache hit is indistinguishable from a fresh simulation to
 *    every consumer.
 */

#ifndef SPECSLICE_SIM_RESULT_JSON_HH
#define SPECSLICE_SIM_RESULT_JSON_HH

#include <string>
#include <vector>

#include "check/digest.hh"
#include "common/jsonio.hh"
#include "core/smt_core.hh"

namespace specslice::sim
{

// Same facade aliases simulator.hh declares (redeclaration of an
// identical alias is well-formed), so this header stands alone.
using RunResult = core::RunResult;
using SimOutcome = core::SimOutcome;
using core::outcomeName;

/**
 * Version of the machine-readable result documents (BENCH_*.json,
 * specslice_run --json). History lives in bench/bench_common.hh next
 * to the benchSchemaVersion alias.
 */
constexpr std::uint64_t resultSchemaVersion = 6;

/** One workload's timed simulation, as recorded by a bench binary. */
struct WorkloadPerf
{
    std::string name;
    RunResult result;
    /** Wall time around the whole run: warm-up and fast-forward
     *  included. */
    double wallSeconds = 0.0;

    /** Measured instructions per wall second of the measured region
     *  (result.mainRetired counts no warm-up instructions, so the
     *  warm-up and fast-forward time stay out of the denominator). */
    double
    instsPerSec() const
    {
        return result.wallMeasureSeconds > 0.0
                   ? static_cast<double>(result.mainRetired) /
                         result.wallMeasureSeconds
                   : 0.0;
    }
};

/** The per-workload record shared by --json and BENCH_*.json. */
json::JsonObject perfRecord(const WorkloadPerf &p);

/** Top-level metadata of a specslice_run --json document. */
struct DocMeta
{
    std::string workload;
    unsigned width = 4;
    std::uint64_t insts = 0;
    std::uint64_t warmup = 0;
    std::uint64_t seed = 1;
    /** FaultPlan::describe() of the armed plan ("" = no inject). */
    std::string injectDescription;
    bool compare = false;  ///< adds speedup_pct from runs[0] vs [1]
};

/** Rank outcomes by severity so a multi-run document (and its exit
 *  code) reports the worst one. */
int outcomeSeverity(SimOutcome oc);

/** The worst outcome across a batch of runs. */
SimOutcome worstOutcome(const std::vector<WorkloadPerf> &runs);

/** The specslice_run --json document for a finished batch of runs. */
std::string perfDocument(const DocMeta &meta,
                         const std::vector<WorkloadPerf> &runs);

/** The {"error": {...}} document a failed run still emits. */
std::string errorDocument(const std::string &workload,
                          std::uint64_t seed, const std::string &kind,
                          const std::string &message);

/**
 * One golden-digest section for a finished run: the exact counter set
 * specslice_verify commits to golden/ (every top-level counter, every
 * "detail."-prefixed subsystem counter, the ipc ratio). Shared by the
 * verify tool and specslice_replay --sim so a trace-mode digest is
 * built from the same fields as the execution-mode corpus.
 */
check::Digest::Section digestSection(const std::string &config,
                                     const RunResult &r);

/** Render a RunResult as a lossless single-line JSON object. */
std::string resultToJson(const RunResult &r);

/**
 * Rebuild a RunResult from resultToJson output. @return false (and
 * set error) on a structurally unusable document; unknown fields are
 * ignored so newer writers stay readable.
 */
bool resultFromJson(const json::Value &doc, RunResult &out,
                    std::string &error);

} // namespace specslice::sim

#endif // SPECSLICE_SIM_RESULT_JSON_HH
