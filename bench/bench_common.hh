/**
 * @file
 * Shared plumbing for the experiment harnesses: run-length defaults
 * (overridable via SS_BENCH_INSTS / SS_BENCH_WARMUP for quick or long
 * runs), the command line and workload list, and the machine-readable
 * result emitter (BENCH_<name>.json) used to track simulator
 * performance across changes.
 *
 * bench_paper regenerates the paper's tables and figures; the absolute
 * numbers depend on this simulator rather than the authors' testbed,
 * but the shapes (who wins, roughly by how much, where the failures
 * are) are the reproduction targets recorded in EXPERIMENTS.md.
 */

#ifndef SPECSLICE_BENCH_COMMON_HH
#define SPECSLICE_BENCH_COMMON_HH

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/jsonio.hh"
#include "obs/interval.hh"
#include "obs/trace.hh"
#include "profile/pde_profile.hh"
#include "sim/experiments.hh"
#include "sim/job_pool.hh"
#include "sim/result_json.hh"
#include "sim/simulator.hh"
#include "sim/table.hh"
#include "workloads/workloads.hh"

namespace specslice::bench
{

/**
 * Version of the machine-readable result documents (BENCH_*.json and
 * specslice_run --json). Bump when fields change meaning or move:
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
 *       that file)
 *
 * The constant itself lives in sim/result_json.hh so specslice_run
 * --json stamps the same version.
 */
constexpr std::uint64_t benchSchemaVersion = sim::resultSchemaVersion;

/**
 * Strictly parse a decimal integer in [0, max] into out: digits only
 * (no sign, no leading whitespace, no trailing garbage) and no
 * overflow. strtoull alone clamps out-of-range input to 2^64-1 and
 * negates " -1"; a caller that then narrows would run something
 * nobody asked for.
 * @return false if s is not such a number.
 */
inline bool
parseCount(const char *s, std::uint64_t max, std::uint64_t &out)
{
    if (*s < '0' || *s > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno == ERANGE || *end != '\0' || v > max)
        return false;
    out = v;
    return true;
}

/**
 * The value s of command-line option opt as a T, parsed by parseCount
 * up to T's maximum. Anything else is a usage error: print it and
 * exit 2, as envOr does.
 */
template <typename T = std::uint64_t>
T
countOption(const std::string &opt, const char *s)
{
    const auto max =
        static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    std::uint64_t v = 0;
    if (!parseCount(s, max, v)) {
        std::fprintf(stderr,
                     "error: %s '%s' is not an integer in [0, %llu]\n",
                     opt.c_str(), s, static_cast<unsigned long long>(max));
        std::exit(2);
    }
    return static_cast<T>(v);
}

/**
 * Read an unsigned integer from the environment, falling back to dflt
 * when the variable is unset. Malformed values (empty, negative,
 * trailing garbage, overflow) abort with a clear message instead of
 * being silently truncated to something surprising.
 */
inline std::uint64_t
envOr(const char *name, std::uint64_t dflt)
{
    const char *v = std::getenv(name);
    if (!v)
        return dflt;
    std::uint64_t parsed = 0;
    if (!parseCount(v, ~std::uint64_t{0}, parsed)) {
        std::fprintf(stderr,
                     "error: %s='%s' is not a valid non-negative "
                     "integer\n",
                     name, v);
        std::exit(2);
    }
    return parsed;
}

/** Measured instructions per run (paper: 100 M; scaled down here). */
inline std::uint64_t
benchInsts()
{
    return envOr("SS_BENCH_INSTS", 300'000);
}

/** Cache/predictor warm-up instructions before measurement. */
inline std::uint64_t
benchWarmup()
{
    return envOr("SS_BENCH_WARMUP", 100'000);
}

inline sim::ExperimentConfig
experimentConfig()
{
    sim::ExperimentConfig cfg;
    cfg.measureInsts = benchInsts();
    cfg.warmupInsts = benchWarmup();
    cfg.seed = envOr("SS_BENCH_SEED", 1);
    return cfg;
}

/**
 * Parse a bench binary's command line in one pass. It takes `--jobs N`
 * and `--trace FLAGS` / `--trace=FLAGS`, which arms debug tracing on
 * top of SS_TRACE from the environment. Any other argument, a bad job
 * count and an unknown trace flag are usage errors (exit 2), so a
 * misspelt option cannot silently run the default sweep.
 * @return the --jobs count, or 0 (meaning "pool default": SS_JOBS or
 *         the hardware concurrency) when the flag is absent.
 */
inline unsigned
parseBenchArgs(int argc, char **argv)
{
    obs::TraceSink::instance().initFromEnv();
    auto arm = [](const std::string &csv) {
        std::string err;
        if (!obs::TraceSink::instance().trySetFlags(csv, err)) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            std::exit(2);
        }
    };
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s requires a value\n",
                             a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--jobs") {
            const char *v = value();
            std::uint64_t parsed = 0;
            if (!parseCount(v, 4096, parsed) || parsed == 0) {
                std::fprintf(stderr,
                             "error: --jobs %s is not a job count in "
                             "[1, 4096]\n",
                             v);
                std::exit(2);
            }
            jobs = static_cast<unsigned>(parsed);
        } else if (a == "--trace") {
            arm(value());
        } else if (a.rfind("--trace=", 0) == 0) {
            arm(a.substr(8));
        } else {
            std::fprintf(stderr, "error: unknown option '%s'\n",
                         a.c_str());
            std::exit(2);
        }
    }
    return jobs;
}

/**
 * The workload list a bench binary sweeps: every registered workload,
 * or the comma-separated subset named by SS_BENCH_WORKLOADS (used by
 * the sanitizer smoke test to keep instrumented runs short). Unknown
 * names abort rather than silently shrinking the sweep.
 */
inline std::vector<std::string>
benchWorkloadNames()
{
    const std::vector<std::string> &all =
        workloads::allWorkloadNames();
    const char *filter = std::getenv("SS_BENCH_WORKLOADS");
    if (!filter || *filter == '\0')
        return all;

    std::vector<std::string> picked;
    std::stringstream ss(filter);
    std::string name;
    while (std::getline(ss, name, ',')) {
        if (name.empty())
            continue;
        if (std::find(all.begin(), all.end(), name) == all.end()) {
            std::fprintf(stderr,
                         "error: SS_BENCH_WORKLOADS names unknown "
                         "workload '%s'\n",
                         name.c_str());
            std::exit(2);
        }
        picked.push_back(name);
    }
    if (picked.empty()) {
        std::fprintf(stderr,
                     "error: SS_BENCH_WORKLOADS='%s' selects no "
                     "workloads\n",
                     filter);
        std::exit(2);
    }
    return picked;
}

// ---------------------------------------------------------------
// Machine-readable output (BENCH_<name>.json, specslice_run --json)
// ---------------------------------------------------------------
//
// The JSON builders and the per-workload record live in
// common/jsonio.hh and sim/result_json.hh (specslice_run --json shares
// them); re-exported here so the bench binaries compile unchanged.

using json::JsonObject;
using json::jsonArray;
using json::jsonEscape;
using sim::WorkloadPerf;
using sim::perfRecord;

/**
 * Write BENCH_<bench_name>.json into the current directory: the
 * per-workload records plus an aggregate simulated-instructions/sec
 * figure. This is the artifact perf claims are checked against —
 * every PR that touches the hot path regenerates it and compares.
 *
 * @param sweep_wall_seconds end-to-end wall clock for the whole sweep
 *        (includes any parallel overlap, so with --jobs N it can be
 *        well below the sum of per-run wall_seconds). <= 0 omits the
 *        field.
 * @return the path written.
 */
inline std::string
writeBenchJson(const std::string &bench_name,
               const std::vector<WorkloadPerf> &rows,
               double sweep_wall_seconds = 0.0)
{
    std::vector<std::string> elems;
    std::uint64_t total_insts = 0;
    double total_wall = 0.0;
    double total_measure = 0.0;
    for (const WorkloadPerf &p : rows) {
        elems.push_back(perfRecord(p).str());
        total_insts += p.result.mainRetired;
        total_wall += p.wallSeconds;
        total_measure += p.result.wallMeasureSeconds;
    }

    // Rates divide measured instructions by measured-region time,
    // like WorkloadPerf::instsPerSec.
    JsonObject aggregate;
    aggregate.field("main_retired", total_insts)
        .field("wall_seconds", total_wall)
        .field("sim_insts_per_sec",
               total_measure > 0.0
                   ? static_cast<double>(total_insts) / total_measure
                   : 0.0);
    if (sweep_wall_seconds > 0.0) {
        aggregate.field("sweep_wall_seconds", sweep_wall_seconds)
            .field("sweep_insts_per_sec",
                   static_cast<double>(total_insts) /
                       sweep_wall_seconds);
    }

    JsonObject doc;
    doc.field("schema_version", benchSchemaVersion)
        .field("bench", bench_name)
        .field("insts", benchInsts())
        .field("warmup", benchWarmup())
        .raw("workloads", jsonArray(elems))
        .raw("aggregate", aggregate.str());

    std::string path = "BENCH_" + bench_name + ".json";
    std::ofstream os(path);
    os << doc.str() << "\n";
    return path;
}

} // namespace specslice::bench

#endif // SPECSLICE_BENCH_COMMON_HH
