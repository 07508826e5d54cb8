/**
 * @file
 * Simulator-throughput benchmark: how many simulated instructions per
 * second the timing model sustains. Not a paper figure — it sizes
 * experiment budgets and guards the hot path against regressions.
 *
 * Default mode sweeps every workload once (run lengths from
 * SS_BENCH_INSTS / SS_BENCH_WARMUP), prints a throughput table and
 * writes BENCH_simspeed.json — the artifact the `bench_smoke` ctest
 * target produces and perf claims are checked against.
 *
 * `--jobs N` parallelizes the sweep; the aggregate gains a
 * sweep_wall_seconds field measuring the whole batch end to end. Use
 * `--jobs 1` when the per-run insts/s numbers themselves are the
 * measurement (parallel runs time-share cores).
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "sim/experiments.hh"
#include "sim/simulator.hh"

using namespace specslice;

namespace
{

int
runSweep(unsigned jobs)
{
    sim::JobPool pool(jobs);
    const sim::ExperimentConfig cfg = bench::experimentConfig();
    const sim::RunOptions opts = cfg.runOptions();

    std::printf("simulator throughput, %llu measured insts "
                "(+%llu warm-up) per workload\n",
                static_cast<unsigned long long>(cfg.measureInsts),
                static_cast<unsigned long long>(cfg.warmupInsts));
    std::printf("%-10s %12s %8s %14s %10s\n", "workload", "cycles",
                "IPC", "sim insts/s", "skipped %");

    // Per-run wall clock is measured inside each job (with --jobs > 1
    // the runs time-share cores, so per-run insts/s is only clean at
    // --jobs 1); the sweep wall clock around the whole batch is what
    // parallelism improves.
    auto sweep_t0 = std::chrono::steady_clock::now();
    std::vector<sim::WorkloadPerf> rows = pool.map(
        bench::benchWorkloadNames(), [&](const std::string &name) {
            auto wl = sim::buildBenchWorkload(name, cfg.seed, opts);
            sim::Simulator machine(sim::MachineConfig::fourWide());
            sim::WorkloadPerf p;
            p.name = name;
            auto t0 = std::chrono::steady_clock::now();
            p.result = machine.run(wl, opts, true);
            auto t1 = std::chrono::steady_clock::now();
            p.wallSeconds =
                std::chrono::duration<double>(t1 - t0).count();
            return p;
        });
    auto sweep_t1 = std::chrono::steady_clock::now();
    double sweep_wall =
        std::chrono::duration<double>(sweep_t1 - sweep_t0).count();

    // Share of simulated cycles (warm-up included) the event-driven
    // core jumped over instead of stepping.
    for (const sim::WorkloadPerf &p : rows) {
        const sim::RunResult &r = p.result;
        const double skipped_pct =
            r.totalCycles ? 100.0 * static_cast<double>(r.skippedCycles) /
                                static_cast<double>(r.totalCycles)
                          : 0.0;
        std::printf("%-10s %12llu %8.3f %14.0f %10.1f\n", p.name.c_str(),
                    static_cast<unsigned long long>(r.cycles), r.ipc(),
                    p.instsPerSec(), skipped_pct);
    }

    std::string path = bench::writeBenchJson("simspeed", rows, sweep_wall);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runSweep(bench::parseBenchArgs(argc, argv));
}
