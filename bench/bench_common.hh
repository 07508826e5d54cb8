/**
 * @file
 * Shared plumbing for the experiment harnesses: run-length defaults
 * (overridable via SS_BENCH_INSTS / SS_BENCH_WARMUP for quick or long
 * runs), standard run helpers, speedup math, and the machine-readable
 * result emitter (BENCH_<name>.json) used to track simulator
 * performance across changes.
 *
 * Each bench binary regenerates one table or figure of the paper; the
 * absolute numbers depend on this simulator rather than the authors'
 * testbed, but the shapes (who wins, roughly by how much, where the
 * failures are) are the reproduction targets recorded in
 * EXPERIMENTS.md.
 */

#ifndef SPECSLICE_BENCH_COMMON_HH
#define SPECSLICE_BENCH_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/jsonio.hh"
#include "sim/result_cache.hh"
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
 *       with this version
 *
 * The constant itself lives in sim/result_json.hh so specslice_run
 * --json stamps the same version.
 */
constexpr std::uint64_t benchSchemaVersion = sim::resultSchemaVersion;

/**
 * Arm debug tracing for a bench/driver binary: SS_TRACE from the
 * environment plus any `--trace FLAGS` / `--trace=FLAGS` argument.
 * Call once at the top of main(); an unknown flag name is a usage
 * error (exit 2) listing the valid names.
 */
inline void
initObservability(int argc, char **argv)
{
    obs::TraceSink::instance().initFromEnv();
    auto arm = [](const char *csv) {
        std::string err;
        if (!obs::TraceSink::instance().trySetFlags(csv, err)) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            std::exit(2);
        }
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--trace") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "error: --trace requires a flag list\n");
                std::exit(2);
            }
            arm(argv[i + 1]);
        } else if (std::strncmp(a, "--trace=", 8) == 0) {
            arm(a + 8);
        }
    }
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
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    bool negative = v[0] == '-';
    bool empty = *v == '\0';
    bool trailing = end == nullptr || *end != '\0';
    if (empty || negative || trailing || errno == ERANGE) {
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

inline workloads::Params
benchParams()
{
    workloads::Params p;
    p.scale = (benchInsts() + benchWarmup()) * 2;
    p.seed = envOr("SS_BENCH_SEED", 1);
    return p;
}

inline sim::RunOptions
benchOpts(bool profile = false)
{
    sim::RunOptions o;
    o.maxMainInstructions = benchInsts();
    o.warmupInstructions = benchWarmup();
    o.profile = profile;
    return o;
}

/**
 * Parse a `--jobs N` option out of argv (any position). Returns the
 * parsed count, or 0 (meaning "pool default": SS_JOBS or the hardware
 * concurrency) when the flag is absent. Bad values abort with a usage
 * message rather than silently running serial.
 */
inline unsigned
jobsOption(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") != 0)
            continue;
        if (i + 1 >= argc) {
            std::fprintf(stderr, "error: --jobs requires a count\n");
            std::exit(2);
        }
        const char *v = argv[i + 1];
        char *end = nullptr;
        errno = 0;
        unsigned long parsed = std::strtoul(v, &end, 10);
        if (*v == '\0' || v[0] == '-' || !end || *end != '\0' ||
            errno == ERANGE || parsed == 0 || parsed > 4096) {
            std::fprintf(stderr,
                         "error: --jobs %s is not a job count in "
                         "[1, 4096]\n",
                         v);
            std::exit(2);
        }
        return static_cast<unsigned>(parsed);
    }
    return 0;
}

/**
 * Parse a `--cache DIR` / `--cache=DIR` option (any position), falling
 * back to the SS_CACHE_DIR environment variable. Returns the opened
 * content-addressed result store, or nullptr when neither source names
 * a directory. A rerun pointed at the same directory serves every
 * unchanged cell from disk.
 */
inline std::unique_ptr<sim::ResultCache>
openCacheOption(int argc, char **argv)
{
    std::string dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cache") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "error: --cache requires a directory\n");
                std::exit(2);
            }
            dir = argv[i + 1];
        } else if (std::strncmp(argv[i], "--cache=", 8) == 0) {
            dir = argv[i] + 8;
        }
    }
    if (dir.empty())
        if (const char *env = std::getenv("SS_CACHE_DIR"))
            dir = env;
    if (dir.empty())
        return nullptr;
    return std::make_unique<sim::ResultCache>(dir);
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

/** Limit-study options: perfect the PCs the workload's slices cover. */
inline sim::RunOptions
limitOpts(const sim::Workload &wl)
{
    sim::RunOptions o = benchOpts();
    for (Addr pc : wl.coveredBranchPcs())
        o.perfect.branchPcs.insert(pc);
    for (Addr pc : wl.coveredLoadPcs())
        o.perfect.loadPcs.insert(pc);
    return o;
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
