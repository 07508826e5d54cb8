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
 * `bench_simspeed --gbench [google-benchmark args...]` instead runs
 * the original google-benchmark microbenchmarks (steady-state timing
 * of a few representative configurations).
 *
 * `--jobs N` parallelizes the sweep; the aggregate gains a
 * sweep_wall_seconds field measuring the whole batch end to end. Use
 * `--jobs 1` when the per-run insts/s numbers themselves are the
 * measurement (parallel runs time-share cores).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

// ---------------------------------------------------------------
// google-benchmark microbenchmarks (--gbench)
// ---------------------------------------------------------------

void
runWorkload(benchmark::State &state, const std::string &name,
            bool with_slices)
{
    workloads::Params p;
    p.scale = 120'000;
    auto wl = workloads::buildWorkload(name, p);
    sim::Simulator simr(sim::MachineConfig::fourWide());

    sim::RunOptions opts;
    opts.maxMainInstructions = 50'000;

    std::uint64_t insts = 0;
    for (auto _ : state) {
        auto res = simr.run(wl, opts, with_slices);
        insts += res.mainRetired;
        benchmark::DoNotOptimize(res.cycles);
    }
    state.counters["insts/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}

void
BM_BaselineVpr(benchmark::State &state)
{
    runWorkload(state, "vpr", false);
}

void
BM_SlicedVpr(benchmark::State &state)
{
    runWorkload(state, "vpr", true);
}

void
BM_BaselineMcf(benchmark::State &state)
{
    runWorkload(state, "mcf", false);
}

void
BM_BaselineVortex(benchmark::State &state)
{
    runWorkload(state, "vortex", false);
}

void
BM_WorkloadBuildVpr(benchmark::State &state)
{
    workloads::Params p;
    p.scale = 120'000;
    for (auto _ : state) {
        auto wl = workloads::buildWorkload("vpr", p);
        arch::MemoryImage mem;
        wl.initMemory(mem);
        benchmark::DoNotOptimize(mem.pageCount());
    }
}

BENCHMARK(BM_BaselineVpr)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SlicedVpr)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BaselineMcf)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BaselineVortex)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WorkloadBuildVpr)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------
// Default mode: full-workload sweep + BENCH_simspeed.json
// ---------------------------------------------------------------

int
runSweep(unsigned jobs)
{
    const auto insts = bench::benchInsts();
    const auto warmup = bench::benchWarmup();

    sim::JobPool pool(jobs);
    sim::RunOptions opts = bench::benchOpts();

    std::printf("simulator throughput, %llu measured insts "
                "(+%llu warm-up) per workload\n",
                static_cast<unsigned long long>(insts),
                static_cast<unsigned long long>(warmup));
    std::printf("%-10s %12s %8s %14s %10s\n", "workload", "cycles",
                "IPC", "sim insts/s", "skipped %");

    // Per-run wall clock is measured inside each job (with --jobs > 1
    // the runs time-share cores, so per-run insts/s is only clean at
    // --jobs 1); the sweep wall clock around the whole batch is what
    // parallelism improves.
    auto sweep_t0 = std::chrono::steady_clock::now();
    std::vector<bench::WorkloadPerf> rows = pool.map(
        bench::benchWorkloadNames(), [&](const std::string &name) {
            auto wl =
                workloads::buildWorkload(name, bench::benchParams());
            sim::Simulator machine(sim::MachineConfig::fourWide());
            bench::WorkloadPerf p;
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
    for (const bench::WorkloadPerf &p : rows) {
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
    if (argc > 1 && std::strcmp(argv[1], "--gbench") == 0) {
        // Drop the flag and hand the rest to google-benchmark.
        obs::TraceSink::instance().initFromEnv();
        for (int i = 1; i + 1 < argc; ++i)
            argv[i] = argv[i + 1];
        --argc;
        benchmark::Initialize(&argc, argv);
        if (benchmark::ReportUnrecognizedArguments(argc, argv))
            return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return 0;
    }
    return runSweep(bench::parseBenchArgs(argc, argv));
}
