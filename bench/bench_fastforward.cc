/**
 * @file
 * Fast-forward engine benchmark and sampling-accuracy gate. Two
 * questions, answered for every workload:
 *
 *   1. Throughput: how many instructions per second does the
 *      arch::FastForward functional engine retire? The design target
 *      is >= 50M insts/s — two orders of magnitude above the timing
 *      model — so fast-forwarding to paper-scale regions is cheap.
 *      Alongside it, what a sampled region pays before its first
 *      detailed cycle: replaying the engine's data-access log into
 *      cold caches (ns per access), and saving and loading its
 *      checkpoint through a file (ms). These are report-only.
 *
 *   2. Accuracy: does a sampled run (fast-forward past the timing
 *      warm-up, then a few short measured regions spread across the
 *      full-run window) reproduce the full run's IPC? The relative
 *      error per workload must stay within epsilon.
 *
 * Output: a table on stdout plus BENCH_fastforward.json. Exit is
 * non-zero when any workload's IPC error exceeds epsilon, or — only
 * when SS_FF_MIN_IPS sets a floor — when the slowest workload's
 * fast-forward throughput falls below it.
 *
 * Knobs (environment):
 *   SS_BENCH_INSTS / SS_BENCH_WARMUP  full-run shape (shared with the
 *                                     other bench binaries)
 *   SS_FF_INSTS      instructions per throughput measurement (5M)
 *   SS_FF_REGIONS    sampled regions per workload (4)
 *   SS_FF_EPSILON    max relative IPC error, e.g. 0.05 = 5% (0.05)
 *   SS_FF_MIN_IPS    fast-forward throughput floor; 0 = report only
 *   SS_BENCH_WORKLOADS  restrict the sweep (smoke tests)
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "arch/checkpoint.hh"
#include "arch/fastfwd.hh"
#include "bench_common.hh"
#include "mem/hierarchy.hh"
#include "sim/experiments.hh"
#include "sim/job_pool.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

/** Read a double knob from the environment (report-style parsing). */
double
envOrF(const char *name, double dflt)
{
    const char *v = std::getenv(name);
    if (!v || *v == '\0')
        return dflt;
    char *end = nullptr;
    double parsed = std::strtod(v, &end);
    if (!end || *end != '\0' || !(parsed >= 0.0)) {
        std::fprintf(stderr,
                     "error: %s='%s' is not a non-negative number\n",
                     name, v);
        std::exit(2);
    }
    return parsed;
}

struct Row
{
    std::string name;
    double ffInstsPerSec = 0.0;
    std::uint64_t ffExecuted = 0;
    double warmNsPerAccess = 0.0;
    double checkpointSaveMs = 0.0;
    double checkpointLoadMs = 0.0;
    double fullIpc = 0.0;
    double sampledIpc = 0.0;
    double relErr = 0.0;
    bool withinEpsilon = false;
    double fullWall = 0.0;
    double sampledWall = 0.0;
    std::string fullOutcome;
    std::string sampledOutcome;
    std::uint64_t fastForwarded = 0;
    unsigned sampledRegions = 0;
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseBenchArgs(argc, argv);

    const sim::ExperimentConfig cfg = bench::experimentConfig();
    const std::uint64_t fullInsts = cfg.measureInsts;
    const std::uint64_t fullWarmup = cfg.warmupInsts;
    const std::uint64_t ffInsts = bench::envOr("SS_FF_INSTS", 5'000'000);
    const unsigned regions = static_cast<unsigned>(
        std::max<std::uint64_t>(1, bench::envOr("SS_FF_REGIONS", 4)));
    const double epsilon = envOrF("SS_FF_EPSILON", 0.05);
    const double minIps = envOrF("SS_FF_MIN_IPS", 0.0);

    // The sampled run covers the full run's measurement window with
    // `regions` short regions: region r starts where the full run is
    // fullWarmup + r * stride instructions in, runs a short predictor/
    // cache warm-up, then measures 1/4 of its slice of the window.
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, fullInsts / regions);
    const std::uint64_t regionMeasure =
        std::max<std::uint64_t>(1'000, stride / 4);
    const std::uint64_t regionWarmup =
        std::min<std::uint64_t>(10'000, std::max<std::uint64_t>(
                                            1'000, fullWarmup / 4));

    const std::vector<std::string> names = bench::benchWorkloadNames();

    // Phase 1 — fast-forward throughput, serial: these runs time the
    // engine itself, so they must not time-share cores.
    std::vector<Row> rows;
    for (const std::string &name : names) {
        workloads::Params wp;
        wp.scale = ffInsts * 2;
        wp.seed = cfg.seed;
        sim::Workload wl = workloads::buildWorkload(name, wp);

        Row row;
        row.name = name;
        arch::FastForward ff(wl.program);
        ff.reset(wl.entry);
        if (wl.initMemory)
            wl.initMemory(ff.mem());
        double t0 = now();
        ff.advance(ffInsts);
        double dt = now() - t0;
        row.ffExecuted = ff.executed();
        row.ffInstsPerSec =
            dt > 0.0 ? static_cast<double>(ff.executed()) / dt : 0.0;

        // Region start-up: the cache-warming replay every sampled
        // region runs, and the checkpoint round trip.
        const std::vector<arch::MemWarmthRecord> log = ff.memWarmth();
        mem::MemoryHierarchy hierarchy(
            sim::MachineConfig::fourWide().memory);
        t0 = now();
        for (const arch::MemWarmthRecord &m : log)
            hierarchy.warmData(m.addr, m.isStore);
        dt = now() - t0;
        if (!log.empty())
            row.warmNsPerAccess =
                dt * 1e9 / static_cast<double>(log.size());

        const std::string ckpt =
            (std::filesystem::temp_directory_path() /
             ("ss_bench_ff_" + name + "_" +
              std::to_string(::getpid()) + ".ckpt"))
                .string();
        std::string err;
        const arch::Checkpoint saved = ff.makeCheckpoint();
        t0 = now();
        const bool saved_ok = arch::saveCheckpointFile(saved, ckpt, err);
        row.checkpointSaveMs = (now() - t0) * 1e3;
        t0 = now();
        const bool loaded_ok =
            saved_ok && arch::loadCheckpointFile(ckpt, err).has_value();
        row.checkpointLoadMs = (now() - t0) * 1e3;
        std::filesystem::remove(ckpt);
        if (!loaded_ok) {
            std::fprintf(stderr, "error: %s checkpoint round trip: %s\n",
                         name.c_str(), err.c_str());
            return 1;
        }
        rows.push_back(std::move(row));
    }

    // Phase 2 — full vs sampled timing runs, parallel across
    // workloads (two runs per workload; the IPCs compared come from
    // simulated cycles, which wall-clock sharing cannot perturb).
    sim::JobPool pool(jobs);
    std::vector<Row> done = pool.map(rows, [&](const Row &in) {
        Row row = in;
        sim::Workload wl = sim::buildBenchWorkload(row.name, cfg.seed,
                                                   cfg.runOptions());
        sim::Simulator machine(sim::MachineConfig::fourWide());

        double t0 = now();
        sim::RunResult fr = machine.run(wl, cfg.runOptions(), true);
        row.fullWall = now() - t0;
        row.fullIpc = fr.ipc();
        row.fullOutcome = sim::outcomeName(fr.outcome);

        sim::RunOptions samp;
        // Center each measured sub-window within its stride: on
        // workloads whose IPC ramps across the window (twolf), always
        // measuring the start of every stride biases the estimate.
        std::uint64_t center_skew = 0;
        if (stride > regionMeasure) {
            center_skew = (stride - regionMeasure) / 2;
            center_skew -= std::min(center_skew, regionWarmup);
        }
        samp.fastForwardInstructions = fullWarmup + center_skew;
        samp.sampleRegions = regions;
        samp.sampleStride = stride;
        samp.warmupInstructions = regionWarmup;
        samp.maxMainInstructions = regionMeasure;
        t0 = now();
        sim::RunResult sr = machine.run(wl, samp, true);
        row.sampledWall = now() - t0;
        row.sampledIpc = sr.ipc();
        row.sampledOutcome = sim::outcomeName(sr.outcome);
        row.fastForwarded = sr.fastForwarded;
        row.sampledRegions = sr.sampledRegions;

        row.relErr = row.fullIpc > 0.0
                         ? std::fabs(row.sampledIpc - row.fullIpc) /
                               row.fullIpc
                         : 1.0;
        row.withinEpsilon = row.relErr <= epsilon;
        return row;
    });

    std::printf("fast-forward throughput (%llu insts/workload) and "
                "sampled-vs-full IPC (%u regions, epsilon %.3f)\n",
                static_cast<unsigned long long>(ffInsts), regions,
                epsilon);
    std::printf("%-10s %14s %8s %8s %8s %9s %9s %8s %7s %8s\n",
                "workload", "ff insts/s", "warm ns", "save ms", "load ms",
                "full IPC", "smp IPC", "rel err", "ok", "speedup");
    double minFf = -1.0;
    double maxErr = 0.0;
    bool allWithin = true;
    for (const Row &r : done) {
        double speedup =
            r.sampledWall > 0.0 ? r.fullWall / r.sampledWall : 0.0;
        std::printf("%-10s %14.3e %8.1f %8.1f %8.1f %9.3f %9.3f %7.1f%% "
                    "%7s %7.2fx\n",
                    r.name.c_str(), r.ffInstsPerSec, r.warmNsPerAccess,
                    r.checkpointSaveMs, r.checkpointLoadMs, r.fullIpc,
                    r.sampledIpc, r.relErr * 100.0,
                    r.withinEpsilon ? "yes" : "NO", speedup);
        if (minFf < 0.0 || r.ffInstsPerSec < minFf)
            minFf = r.ffInstsPerSec;
        maxErr = std::max(maxErr, r.relErr);
        allWithin = allWithin && r.withinEpsilon;
    }
    if (minFf < 0.0)
        minFf = 0.0;
    const bool throughputOk = minIps <= 0.0 || minFf >= minIps;

    std::vector<std::string> elems;
    for (const Row &r : done) {
        json::JsonObject o;
        o.field("name", r.name)
            .field("ff_insts_per_sec", r.ffInstsPerSec)
            .field("ff_executed", r.ffExecuted)
            .field("warm_ns_per_access", r.warmNsPerAccess)
            .field("checkpoint_save_ms", r.checkpointSaveMs)
            .field("checkpoint_load_ms", r.checkpointLoadMs)
            .field("full_ipc", r.fullIpc)
            .field("sampled_ipc", r.sampledIpc)
            .field("ipc_rel_err", r.relErr)
            .raw("within_epsilon", r.withinEpsilon ? "true" : "false")
            .field("full_wall_seconds", r.fullWall)
            .field("sampled_wall_seconds", r.sampledWall)
            .field("full_outcome", r.fullOutcome)
            .field("sampled_outcome", r.sampledOutcome)
            .field("fast_forwarded", r.fastForwarded)
            .field("sampled_regions",
                   std::uint64_t{r.sampledRegions});
        elems.push_back(o.str());
    }
    json::JsonObject aggregate;
    aggregate.field("min_ff_insts_per_sec", minFf)
        .field("max_ipc_rel_err", maxErr)
        .raw("all_within_epsilon", allWithin ? "true" : "false")
        .raw("throughput_ok", throughputOk ? "true" : "false");
    json::JsonObject doc;
    doc.field("schema_version", sim::resultSchemaVersion)
        .field("bench", std::string("fastforward"))
        .field("insts", fullInsts)
        .field("warmup", fullWarmup)
        .field("ff_insts", ffInsts)
        .field("regions", std::uint64_t{regions})
        .field("region_warmup", regionWarmup)
        .field("region_measure", regionMeasure)
        .field("stride", stride)
        .field("epsilon", epsilon)
        .field("min_insts_per_sec", minIps)
        .raw("workloads", json::jsonArray(elems))
        .raw("aggregate", aggregate.str());

    const std::string path = "BENCH_fastforward.json";
    {
        std::ofstream os(path);
        os << doc.str() << "\n";
    }
    std::printf("wrote %s\n", path.c_str());

    if (!allWithin) {
        std::fprintf(stderr,
                     "error: sampled IPC error above epsilon %.3f on "
                     "at least one workload (max %.3f)\n",
                     epsilon, maxErr);
        return 1;
    }
    if (!throughputOk) {
        std::fprintf(stderr,
                     "error: fast-forward throughput %.3g insts/s "
                     "below SS_FF_MIN_IPS=%.3g\n",
                     minFf, minIps);
        return 1;
    }
    return 0;
}
