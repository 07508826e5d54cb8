/**
 * @file
 * RunResult -> JSON: the per-workload *record* (perfRecord) and the
 * specslice_run --json document built from it (perfDocument), the
 * stable, human-facing rows emitted by specslice_run --json and
 * BENCH_*.json, plus the golden-digest section of a finished run.
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
using core::isWorseOutcome;
using core::outcomeName;

/**
 * Version of the machine-readable result documents (BENCH_*.json,
 * specslice_run --json). History lives in bench/bench_common.hh next
 * to the benchSchemaVersion alias.
 */
constexpr std::uint64_t resultSchemaVersion = 7;

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
    bool compare = false;  ///< adds speedup_pct from runs[0] vs [1]
};

/** The worst outcome across a batch of runs, which a multi-run
 *  document (and its exit code) reports. */
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
 * "detail."-prefixed subsystem counter, the ipc ratio). Every live
 * digest a check compares against the corpus is built from it.
 */
check::Digest::Section digestSection(const std::string &config,
                                     const RunResult &r);

} // namespace specslice::sim

#endif // SPECSLICE_SIM_RESULT_JSON_HH
