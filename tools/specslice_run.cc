/**
 * @file
 * Command-line driver: run any workload on any machine configuration
 * and dump results — the scripting surface of the simulator.
 *
 *   specslice_run --workload vpr --insts 200000 --warmup 50000
 *   specslice_run --workload mcf --width 8 --no-slices --stats
 *   specslice_run --workload twolf --limit        # constrained limit
 *   specslice_run --workload gcc --check   # co-simulate the reference
 *   specslice_run --workload vpr --disasm         # dump the code
 *   specslice_run --workload gcc --fastforward 1000000 --sample 4
 *   specslice_run --workload gcc --fastforward 1000000 \
 *       --save-checkpoint gcc.ckpt   # then: --load-checkpoint
 *   specslice_run --list
 *
 * Exit codes (scripts and CI depend on these):
 *   0  run completed (or --allow-partial was given)
 *   2  usage error (unknown option or workload, or a bad value)
 *   3  run did not complete (cycle limit / watchdog) without
 *      --allow-partial
 *   4  simulation error (panic/fatal, including a --check
 *      divergence); with --json a machine-readable error document is
 *      still emitted on stdout
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "bench_common.hh"
#include "common/failure.hh"
#include "obs/events.hh"
#include "obs/interval.hh"
#include "sim/experiments.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

struct Options
{
    std::string workload = "vpr";
    unsigned width = 4;
    std::uint64_t insts = 300'000;
    std::uint64_t warmup = 100'000;
    std::uint64_t seed = 1;
    unsigned threads = 4;
    int bias = -1;          // <0: keep default
    bool slices = true;
    bool check = false;     // retirement-time architectural checker
    bool limit = false;
    bool profile = false;
    bool stats = false;
    bool json = false;      // machine-readable result on stdout
    bool disasm = false;
    bool list = false;
    bool compare = false;   // run baseline AND slices, print speedup
    unsigned jobs = 0;      // --compare parallelism (0: pool default)
    std::uint64_t fastforward = 0;   // insts skipped before region 1
    unsigned sampleRegions = 0;      // --sample region count (0: off)
    std::uint64_t sampleStride = 0;  // region spacing (0: contiguous)
    std::string saveCheckpoint;      // write state after fast-forward
    std::string loadCheckpoint;      // resume from a saved state
    Cycle watchdog = core::RunOptions().watchdogCycles;  // 0: off
    Cycle maxCycles = 0;        // --max-cycles (0: 50x inst budget)
    bool allowPartial = false;  // exit 0 even on a truncated run
    std::string intervalsPath;  // --intervals CSV destination
    std::uint64_t intervalCycles = 10'000;
    bool intervalsRequested = false;
    std::string chromeTracePath;  // --chrome-trace JSON destination
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: specslice_run [options]\n"
        "  --workload NAME   benchmark to run (--list to enumerate)\n"
        "  --width 4|8       Table 1 machine width (default 4)\n"
        "  --insts N         measured instructions (default 300000)\n"
        "  --warmup N        warm-up instructions (default 100000)\n"
        "  --seed N          workload construction seed\n"
        "  --threads N       SMT contexts, 1..%u (default 4)\n"
        "  --bias N          ICOUNT main-thread fetch bias\n"
        "  --no-slices       baseline run (helper threads idle)\n"
        "  --fastforward N   functionally execute N instructions (from\n"
        "                    program entry, absolute position) before\n"
        "                    the first timing region\n"
        "  --sample R        measure R regions of --warmup + --insts\n"
        "                    each and aggregate the counters\n"
        "  --sample-stride N region starts are N instructions apart\n"
        "                    (default: contiguous, warmup+insts)\n"
        "  --save-checkpoint FILE  write the architectural state at\n"
        "                    the fast-forward point, then keep running\n"
        "  --load-checkpoint FILE  restore state instead of executing\n"
        "                    from entry (same workload flags required;\n"
        "                    --fastforward N is absolute, so reaching\n"
        "                    a checkpoint taken at N costs nothing;\n"
        "                    N below the checkpoint's position is an\n"
        "                    error, and N = 0 starts at the checkpoint)\n"
        "  --check           co-simulate the in-order architectural\n"
        "                    reference; divergence is fatal with a\n"
        "                    first-divergence report (SS_CHECK=1 in\n"
        "                    the environment also works)\n"
        "  --compare         run baseline and slices, print speedup\n"
        "  --jobs N          simulations run in parallel for --compare\n"
        "                    (default: SS_JOBS or the core count)\n"
        "  --watchdog N      forward-progress watchdog: terminate when\n"
        "                    the main thread retires nothing for N\n"
        "                    cycles (default 250000, 0 = off)\n"
        "  --max-cycles N    hard cycle limit (default 50x --insts)\n"
        "  --allow-partial   exit 0 even when the run was cut short by\n"
        "                    the watchdog or cycle limit\n"
        "  --limit           constrained limit study instead of slices\n"
        "  --profile         print the problem-instruction profile\n"
        "  --stats           dump all detail counters\n"
        "  --json            print the result as JSON on stdout\n"
        "  --intervals FILE  write the interval time-series CSV\n"
        "  --interval-cycles N  interval window length (default 10000)\n"
        "  --chrome-trace FILE  write pipeline, slice and memory events\n"
        "                    as Chrome trace JSON (chrome://tracing,\n"
        "                    Perfetto); keeps the newest 2^18 events\n"
        "  --disasm          print the program and slice disassembly\n"
        "  --list            list available workloads\n"
        "exit codes: 0 completed, 2 usage, 3 incomplete run (no\n"
        "            --allow-partial), 4 sim error (a --check\n"
        "            divergence included)\n",
        core::maxThreads);
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = next();
        else if (a == "--width")
            o.width = bench::countOption<unsigned>(a, next());
        else if (a == "--insts")
            o.insts = bench::countOption(a, next());
        else if (a == "--warmup")
            o.warmup = bench::countOption(a, next());
        else if (a == "--seed")
            o.seed = bench::countOption(a, next());
        else if (a == "--threads")
            o.threads = bench::countOption<unsigned>(a, next());
        else if (a == "--bias")
            o.bias = bench::countOption<int>(a, next());
        else if (a == "--no-slices")
            o.slices = false;
        else if (a == "--fastforward")
            o.fastforward = bench::countOption(a, next());
        else if (a == "--sample") {
            o.sampleRegions = bench::countOption<unsigned>(a, next());
            if (o.sampleRegions == 0)
                usage(2);
        }
        else if (a == "--sample-stride") {
            o.sampleStride = bench::countOption(a, next());
            if (o.sampleStride == 0)
                usage(2);
        }
        else if (a == "--save-checkpoint")
            o.saveCheckpoint = next();
        else if (a == "--load-checkpoint")
            o.loadCheckpoint = next();
        else if (a == "--check")
            o.check = true;
        else if (a == "--compare")
            o.compare = true;
        else if (a == "--jobs") {
            o.jobs = bench::countOption<unsigned>(a, next());
            if (o.jobs == 0 || o.jobs > 4096)
                usage(2);
        }
        else if (a == "--watchdog")
            o.watchdog = bench::countOption(a, next());
        else if (a == "--max-cycles")
            o.maxCycles = bench::countOption(a, next());
        else if (a == "--allow-partial")
            o.allowPartial = true;
        else if (a == "--intervals") {
            o.intervalsPath = next();
            o.intervalsRequested = true;
        }
        else if (a == "--interval-cycles") {
            o.intervalCycles = bench::countOption(a, next());
            o.intervalsRequested = true;
            if (o.intervalCycles == 0)
                usage(2);
        }
        else if (a == "--chrome-trace")
            o.chromeTracePath = next();
        else if (a == "--limit")
            o.limit = true;
        else if (a == "--profile")
            o.profile = true;
        else if (a == "--stats")
            o.stats = true;
        else if (a == "--json")
            o.json = true;
        else if (a == "--disasm")
            o.disasm = true;
        else if (a == "--list")
            o.list = true;
        else if (a == "--help" || a == "-h")
            usage(0);
        else {
            std::fprintf(stderr, "error: unknown option '%s'\n",
                         a.c_str());
            usage(2);
        }
    }
    return o;
}

/** Run one configuration, timing the simulation wall clock. */
sim::WorkloadPerf
timedRun(const std::string &name, sim::Simulator &machine,
         const sim::Workload &wl, const sim::RunOptions &opts,
         bool slices)
{
    sim::WorkloadPerf p;
    p.name = name;
    auto t0 = std::chrono::steady_clock::now();
    p.result = slices ? machine.run(wl, opts, true)
                      : machine.runBaseline(wl, opts);
    auto t1 = std::chrono::steady_clock::now();
    p.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    return p;
}

void
printResult(const char *tag, const sim::RunResult &r)
{
    std::printf("%-10s %10llu cycles  IPC %.3f  mispred %llu  "
                "L1-miss %llu",
                tag, static_cast<unsigned long long>(r.cycles), r.ipc(),
                static_cast<unsigned long long>(r.mispredictions),
                static_cast<unsigned long long>(r.l1dMissesMain));
    if (r.forks)
        std::printf("  forks %llu  preds-used %llu (wrong %llu)",
                    static_cast<unsigned long long>(r.forks),
                    static_cast<unsigned long long>(r.correlatorUsed),
                    static_cast<unsigned long long>(r.correlatorWrong));
    if (r.outcome != sim::SimOutcome::Completed)
        std::printf("  [%s]", sim::outcomeName(r.outcome));
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);

    if (o.list) {
        for (const auto &n : workloads::allWorkloadNames())
            std::printf("%s\n", n.c_str());
        return 0;
    }

    if (o.width != 4 && o.width != 8) {
        std::fprintf(stderr,
                     "error: --width %u is not a Table 1 machine "
                     "width (valid: 4, 8)\n",
                     o.width);
        return 2;
    }
    if (o.threads == 0 || o.threads > core::maxThreads) {
        std::fprintf(stderr,
                     "error: --threads %u out of range (valid: "
                     "1..%u)\n",
                     o.threads, core::maxThreads);
        return 2;
    }

    const std::vector<std::string> &all = workloads::allWorkloadNames();
    if (std::find(all.begin(), all.end(), o.workload) == all.end()) {
        std::string valid;
        for (const auto &n : all)
            valid += (valid.empty() ? "" : " ") + n;
        std::fprintf(stderr,
                     "error: unknown workload '%s' (valid: %s)\n",
                     o.workload.c_str(), valid.c_str());
        return 2;
    }

    if (!o.saveCheckpoint.empty() && o.compare) {
        std::fprintf(stderr,
                     "error: --save-checkpoint cannot be combined "
                     "with --compare (both runs would race writing "
                     "the same file); save it in a single run, then "
                     "--compare --load-checkpoint\n");
        return 2;
    }
    if (o.limit && o.compare) {
        std::fprintf(stderr,
                     "error: --limit cannot be combined with "
                     "--compare (--limit runs only the limit study)\n");
        return 2;
    }

    sim::RunOptions opts;
    opts.maxMainInstructions = o.insts;
    opts.warmupInstructions = o.warmup;
    opts.maxCycles = o.maxCycles;
    opts.watchdogCycles = o.watchdog;
    opts.profile = o.profile;
    opts.check = o.check;
    opts.fastForwardInstructions = o.fastforward;
    opts.sampleRegions = o.sampleRegions;
    opts.sampleStride = o.sampleStride;
    opts.saveCheckpoint = o.saveCheckpoint;
    opts.restoreCheckpoint = o.loadCheckpoint;
    if (o.json || o.intervalsRequested)
        opts.intervalCycles = o.intervalCycles;

    const sim::Workload wl =
        sim::buildBenchWorkload(o.workload, o.seed, opts);

    if (o.disasm) {
        std::printf("%s", wl.program.disassemble().c_str());
        return 0;
    }

    sim::MachineConfig cfg = o.width == 8
                                 ? sim::MachineConfig::eightWide()
                                 : sim::MachineConfig::fourWide();
    cfg.numThreads = o.threads;
    if (o.bias >= 0)
        cfg.mainThreadFetchBias = o.bias;

    sim::Simulator machine(cfg);

    // The event buffer is attached to the run of interest only: the
    // slices run under --compare (the baseline never forks), otherwise
    // whatever single run executes.
    std::unique_ptr<obs::EventBuffer> events;
    if (!o.chromeTracePath.empty())
        events = std::make_unique<obs::EventBuffer>();

    // A failed single run keeps its partial intervals in a
    // caller-owned sink (--compare runs would race on it).
    std::vector<obs::IntervalRecord> interval_live;
    if (!o.compare) {
        opts.events = events.get();
        opts.intervalSink = &interval_live;
    }

    if (!o.json)
        std::printf("%s on the %u-wide machine (%llu measured insts, "
                    "%llu warm-up)\n",
                    wl.name.c_str(), o.width,
                    static_cast<unsigned long long>(o.insts),
                    static_cast<unsigned long long>(o.warmup));

    std::vector<sim::WorkloadPerf> runs;
    try {
        ScopedThrowErrors throwing;
        if (o.limit) {
            runs.push_back(timedRun("limit", machine, wl,
                                    sim::limitOptions(wl, opts), false));
        } else if (o.compare) {
            // The two runs are independent (each gets its own
            // simulator instance; wl is shared read-only), so they
            // overlap on a multicore host. Throw-mode is per thread,
            // so each job installs its own.
            struct RunSpec
            {
                const char *tag;
                bool slices;
            };
            const std::vector<RunSpec> specs = {{"baseline", false},
                                                {"slices", true}};
            sim::JobPool pool(o.jobs);
            runs = pool.map(specs, [&](const RunSpec &s) {
                ScopedThrowErrors job_throwing;
                sim::Simulator m(cfg);
                sim::RunOptions ro = opts;
                if (s.slices)
                    ro.events = events.get();
                return timedRun(s.tag, m, wl, ro, s.slices);
            });
        } else {
            runs.push_back(timedRun(o.slices ? "slices" : "baseline",
                                    machine, wl, opts, o.slices));
        }
    } catch (const SimError &e) {
        // A failed run still produces a machine-readable record: with
        // --json an {"error": {...}} document goes to stdout, and the
        // partial observability artifacts are written either way.
        if (!o.intervalsPath.empty() && !interval_live.empty()) {
            std::ofstream os(o.intervalsPath);
            if (os)
                obs::writeIntervalsCsv(os, interval_live);
        }
        if (events && events->size()) {
            std::ofstream os(o.chromeTracePath);
            if (os)
                events->writeChromeTrace(os);
        }
        const char *kind = SimError::kindName(e.kind());
        if (o.json)
            std::printf(
                "%s\n",
                sim::errorDocument(wl.name, o.seed, kind, e.what())
                    .c_str());
        std::fprintf(stderr, "error: simulation failed (%s): %s\n",
                     kind, e.what());
        return 4;
    }
    const sim::RunResult &result = runs.back().result;

    std::uint64_t checked = 0;
    for (const auto &p : runs)
        checked += p.result.checkedRetired;
    sim::SimOutcome worst = sim::worstOutcome(runs);

    if (o.json) {
        sim::DocMeta meta;
        meta.workload = wl.name;
        meta.width = o.width;
        meta.insts = o.insts;
        meta.warmup = o.warmup;
        meta.seed = o.seed;
        meta.compare = o.compare;
        std::printf("%s\n", sim::perfDocument(meta, runs).c_str());
    } else {
        for (const auto &p : runs)
            printResult(p.name.c_str(), p.result);
        if (result.sampledRegions)
            std::printf("sampling: fast-forwarded %llu insts, "
                        "%u region%s measured\n",
                        static_cast<unsigned long long>(
                            result.fastForwarded),
                        result.sampledRegions,
                        result.sampledRegions == 1 ? "" : "s");
        if (o.compare)
            std::printf("speedup: %+.1f%%\n",
                        sim::speedupPct(runs[0].result,
                                        runs[1].result));
        if (checked)
            std::printf("checker: %llu retirements matched the "
                        "architectural reference\n",
                        static_cast<unsigned long long>(checked));
        if (worst != sim::SimOutcome::Completed)
            std::printf("outcome: %s%s\n", sim::outcomeName(worst),
                        o.allowPartial ? " (partial result accepted)"
                                       : "");
    }

    // Write every artifact before failing on a path that could not
    // be opened, so one bad path does not cost the other artifact.
    std::string unopened;
    if (!o.intervalsPath.empty()) {
        std::ofstream os(o.intervalsPath);
        if (os)
            obs::writeIntervalsCsv(os, result.intervals);
        else
            unopened = "--intervals file '" + o.intervalsPath + "'";
    }
    if (events) {
        std::ofstream os(o.chromeTracePath);
        if (os)
            events->writeChromeTrace(os);
        else if (unopened.empty())
            unopened = "--chrome-trace file '" + o.chromeTracePath + "'";
    }
    if (!unopened.empty())
        SS_FATAL("cannot open ", unopened);
    if (events && !o.json)
        std::printf("chrome trace: %s (%zu events%s)\n",
                    o.chromeTracePath.c_str(), events->size(),
                    events->dropped() ? ", ring overflowed" : "");

    if (o.profile) {
        auto prob =
            profile::classifyProblemInstructions(result.profile);
        std::printf("\nproblem instructions: %zu loads/stores, "
                    "%zu branches\n",
                    prob.problemLoads.size(),
                    prob.problemBranches.size());
        for (Addr pc : prob.problemLoads) {
            const auto &c = result.profile.perPc.at(pc);
            std::printf("  load   0x%llx  %llu/%llu miss   %s\n",
                        static_cast<unsigned long long>(pc),
                        static_cast<unsigned long long>(c.loadMiss +
                                                        c.storeMiss),
                        static_cast<unsigned long long>(c.loadExec +
                                                        c.storeExec),
                        wl.program.fetch(pc)->disassemble().c_str());
        }
        for (Addr pc : prob.problemBranches) {
            const auto &c = result.profile.perPc.at(pc);
            std::printf("  branch 0x%llx  %llu/%llu mispred  %s\n",
                        static_cast<unsigned long long>(pc),
                        static_cast<unsigned long long>(c.branchMispred),
                        static_cast<unsigned long long>(c.branchExec),
                        wl.program.fetch(pc)->disassemble().c_str());
        }
    }

    if (o.stats) {
        if (o.json) {
            // Keep stdout pure JSON; detail goes to stderr.
            std::cerr << "outcome: " << sim::outcomeName(worst) << "\n";
            result.detail.dump(std::cerr);
        } else {
            std::printf("\noutcome: %s\n", sim::outcomeName(worst));
            result.detail.dump(std::cout);
        }
    }

    if (worst != sim::SimOutcome::Completed && !o.allowPartial)
        return 3;
    return 0;
}
