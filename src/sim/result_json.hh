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
 * specslice_run --json, specslice_verify --json and specslice_replay's
 * documents). Bump when fields change meaning or move:
 *   1 — flat per-workload records (implicit, pre-versioning)
 *   2 — schema_version field, optional per-run "intervals" array
 *   3 — per-run "outcome" field (completed/cycle_limit/watchdog/
 *       checker_divergence/fault), optional "faults_injected"/
 *       "fault_summary" fields, top-level "error" document on a
 *       failed specslice_run (additive)
 *   4 — optional per-run "fast_forwarded"/"sampled_regions" fields on
 *       sampled runs (additive; absent means a full run)
 *   5 — wall-clock fields ("wall_seconds"/"sim_insts_per_sec") become
 *       omittable (--no-wall, sweep-service documents); optional
 *       "cached" marker on served results (additive)
 *   6 — trace-driven runs: job specs accept "trace_file" (serve
 *       requests, specslice_run --trace-file) and specslice_replay
 *       emits per-trace replay documents/BENCH_replay.json stamped
 *       with this version; later, specslice_verify --json lost its
 *       "cache" block with --cache itself (no bump: the block only
 *       appeared under --cache, which is now a usage error)
 *   7 — specslice_verify --json records lose "attempts" and the
 *       "timeout" state (--deadline is gone); "wall_seconds" times
 *       the whole verify job; the outcome "fault" is gone, and a
 *       failed specslice_run --compare reports error kind "panic" or
 *       "fatal" (was "failed"); later, the "faults_injected"/
 *       "fault_summary" run fields, the top-level "inject" field and
 *       the "checker_divergence" outcome went with --inject (no
 *       bump: they only appeared under --inject, which is now a
 *       usage error; a divergence is a fatal "error" document);
 *       later, BENCH_fastforward.json records gained the report-only
 *       "warm_ns_per_access", "checkpoint_save_ms" and
 *       "checkpoint_load_ms" columns (no bump: additive, and only in
 *       that file); later, specslice_run --trace-file and the
 *       specslice_replay --sim document (with its "digest" field)
 *       went, because a trace no longer carries its workload (no
 *       bump: both are usage errors now, and no other document
 *       changed); later, the single-trace specslice_replay --trace
 *       --json document went with --trace (no bump: --trace is a
 *       usage error now, and BENCH_replay.json's per-trace rows keep
 *       its fields)
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
