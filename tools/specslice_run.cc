/**
 * @file
 * Command-line driver: run any workload on any machine configuration
 * and dump results — the scripting surface of the simulator.
 *
 *   specslice_run --workload vpr --insts 200000 --warmup 50000
 *   specslice_run --workload mcf --width 8 --no-slices --stats
 *   specslice_run --workload twolf --limit        # constrained limit
 *   specslice_run --workload gcc --check --inject slice.kill@n5
 *   specslice_run --workload vpr --disasm         # dump the code
 *   specslice_run --workload gcc --fastforward 1000000 --sample 4
 *   specslice_run --workload gcc --fastforward 1000000 \
 *       --save-checkpoint gcc.ckpt   # then: --load-checkpoint
 *   specslice_run --list
 *
 * Exit codes (scripts and CI depend on these):
 *   0  run completed (or --allow-partial was given)
 *   1  retirement checker latched a divergence
 *   2  usage error (unknown flag/workload/trace flag/inject spec)
 *   3  run did not complete (cycle limit / watchdog) without
 *      --allow-partial
 *   4  simulation error (panic/fatal/timeout); with --json a
 *      machine-readable error document is still emitted on stdout
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
#include "fault/fault.hh"
#include "obs/events.hh"
#include "obs/interval.hh"
#include "obs/trace.hh"
#include "sim/experiments.hh"
#include "sim/simulator.hh"
#include "trace/frontend.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

struct Options
{
    std::string workload = "vpr";
    std::string traceFile;  // run from an sstr trace instead
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
    bool noWarmPredictors = false;   // cold predictors per region
    bool noWarmCaches = false;       // cold caches per region
    bool coldIcache = false;         // no I-side warmth replay
    std::string saveCheckpoint;      // write state after fast-forward
    std::string loadCheckpoint;      // resume from a saved state
    std::string inject;         // --inject fault spec (adds to SS_INJECT)
    Cycle watchdog = 0;         // --watchdog threshold (0: default)
    bool noWatchdog = false;
    Cycle maxCycles = 0;        // --max-cycles (0: 50x inst budget)
    bool allowPartial = false;  // exit 0 even on a truncated run
    std::string trace;          // --trace flag list (adds to SS_TRACE)
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
        "  --trace-file FILE run the workload embedded in an sstr\n"
        "                    trace (specslice_replay --emit) instead\n"
        "                    of a named builder workload\n"
        "  --width 4|8       Table 1 machine width (default 4)\n"
        "  --insts N         measured instructions (default 300000)\n"
        "  --warmup N        warm-up instructions (default 100000)\n"
        "  --seed N          workload construction seed (also seeds\n"
        "                    fault injection)\n"
        "  --threads N       SMT contexts, 1..64 (default 4)\n"
        "  --bias N          ICOUNT main-thread fetch bias\n"
        "  --no-slices       baseline run (helper threads idle)\n"
        "  --fastforward N   functionally execute N instructions (from\n"
        "                    program entry, absolute position) before\n"
        "                    the first timing region\n"
        "  --sample R        measure R regions of --warmup + --insts\n"
        "                    each and aggregate the counters\n"
        "  --sample-stride N region starts are N instructions apart\n"
        "                    (default: contiguous, warmup+insts)\n"
        "  --cold-predictors do not replay branch history into the\n"
        "                    predictors at each region start\n"
        "  --cold-caches     do not replay data accesses into the\n"
        "                    cache hierarchy at each region start\n"
        "  --cold-icache     do not replay executed-line history into\n"
        "                    the I-cache at each region start\n"
        "  --save-checkpoint FILE  write the architectural state at\n"
        "                    the fast-forward point, then keep running\n"
        "  --load-checkpoint FILE  restore state instead of executing\n"
        "                    from entry (same workload flags required;\n"
        "                    --fastforward N is absolute, so reaching\n"
        "                    a checkpoint taken at N costs nothing)\n"
        "  --check           co-simulate the in-order architectural\n"
        "                    reference; divergence is fatal with a\n"
        "                    first-divergence report (SS_CHECK=1 in\n"
        "                    the environment also works)\n"
        "  --compare         run baseline and slices, print speedup\n"
        "  --jobs N          simulations run in parallel for --compare\n"
        "                    (default: SS_JOBS or the core count)\n"
        "  --inject SPEC     seeded deterministic fault injection\n"
        "                    (merged with SS_INJECT from the\n"
        "                    environment; --help-inject for grammar)\n"
        "  --watchdog N      forward-progress watchdog: terminate when\n"
        "                    the main thread retires nothing for N\n"
        "                    cycles (default 250000)\n"
        "  --no-watchdog     disable the forward-progress watchdog\n"
        "  --max-cycles N    hard cycle limit (default 50x --insts)\n"
        "  --allow-partial   exit 0 even when the run was cut short by\n"
        "                    the watchdog or cycle limit\n"
        "  --limit           constrained limit study instead of slices\n"
        "  --profile         print the problem-instruction profile\n"
        "  --stats           dump all detail counters\n"
        "  --json            print the result as JSON on stdout\n"
        "  --trace FLAGS     arm debug tracing (comma list of\n"
        "                    fetch,smt,corr,slice,mem,pred or 'all';\n"
        "                    SS_TRACE in the environment also works)\n"
        "  --intervals FILE  write the interval time-series CSV\n"
        "  --interval-cycles N  interval window length (default 10000)\n"
        "  --chrome-trace FILE  write pipeline/slice events as Chrome\n"
        "                    trace JSON (chrome://tracing, Perfetto)\n"
        "  --disasm          print the program and slice disassembly\n"
        "  --list            list available workloads\n"
        "exit codes: 0 completed, 1 checker divergence, 2 usage,\n"
        "            3 incomplete run (no --allow-partial), 4 sim "
        "error\n");
    std::exit(code);
}

std::uint64_t
parseNum(const char *s)
{
    char *end = nullptr;
    std::uint64_t v = std::strtoull(s, &end, 10);
    if (!end || *end != '\0' || *s == '\0' || *s == '-')
        usage(2);
    return v;
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
        else if (a == "--trace-file")
            o.traceFile = next();
        else if (a == "--width")
            o.width = static_cast<unsigned>(parseNum(next()));
        else if (a == "--insts")
            o.insts = parseNum(next());
        else if (a == "--warmup")
            o.warmup = parseNum(next());
        else if (a == "--seed")
            o.seed = parseNum(next());
        else if (a == "--threads")
            o.threads = static_cast<unsigned>(parseNum(next()));
        else if (a == "--bias")
            o.bias = static_cast<int>(parseNum(next()));
        else if (a == "--no-slices")
            o.slices = false;
        else if (a == "--fastforward")
            o.fastforward = parseNum(next());
        else if (a == "--sample") {
            o.sampleRegions = static_cast<unsigned>(parseNum(next()));
            if (o.sampleRegions == 0)
                usage(2);
        }
        else if (a == "--sample-stride") {
            o.sampleStride = parseNum(next());
            if (o.sampleStride == 0)
                usage(2);
        }
        else if (a == "--cold-predictors")
            o.noWarmPredictors = true;
        else if (a == "--cold-caches")
            o.noWarmCaches = true;
        else if (a == "--cold-icache")
            o.coldIcache = true;
        else if (a == "--save-checkpoint")
            o.saveCheckpoint = next();
        else if (a == "--load-checkpoint")
            o.loadCheckpoint = next();
        else if (a == "--check")
            o.check = true;
        else if (a == "--compare")
            o.compare = true;
        else if (a == "--jobs") {
            o.jobs = static_cast<unsigned>(parseNum(next()));
            if (o.jobs == 0 || o.jobs > 4096)
                usage(2);
        }
        else if (a == "--inject")
            o.inject = next();
        else if (a.rfind("--inject=", 0) == 0)
            o.inject = a.substr(9);
        else if (a == "--help-inject") {
            std::printf("%s", fault::FaultPlan::grammarHelp().c_str());
            std::exit(0);
        }
        else if (a == "--watchdog")
            o.watchdog = parseNum(next());
        else if (a == "--no-watchdog")
            o.noWatchdog = true;
        else if (a == "--max-cycles")
            o.maxCycles = parseNum(next());
        else if (a == "--allow-partial")
            o.allowPartial = true;
        else if (a == "--trace")
            o.trace = next();
        else if (a.rfind("--trace=", 0) == 0)
            o.trace = a.substr(8);
        else if (a == "--intervals") {
            o.intervalsPath = next();
            o.intervalsRequested = true;
        }
        else if (a == "--interval-cycles") {
            o.intervalCycles = parseNum(next());
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
bench::WorkloadPerf
timedRun(const std::string &name, sim::Simulator &machine,
         const sim::Workload &wl, const sim::RunOptions &opts,
         bool slices)
{
    bench::WorkloadPerf p;
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

    obs::TraceSink::instance().initFromEnv();
    if (!o.trace.empty()) {
        std::string terr;
        if (!obs::TraceSink::instance().trySetFlags(o.trace, terr)) {
            std::fprintf(stderr, "error: %s\n", terr.c_str());
            return 2;
        }
    }

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
    if (o.threads == 0 || o.threads > 64) {
        std::fprintf(stderr,
                     "error: --threads %u out of range (valid: "
                     "1..64)\n",
                     o.threads);
        return 2;
    }

    if (o.traceFile.empty()) {
        const std::vector<std::string> &all =
            workloads::allWorkloadNames();
        if (std::find(all.begin(), all.end(), o.workload) ==
            all.end()) {
            std::string valid;
            for (const auto &n : all)
                valid += (valid.empty() ? "" : " ") + n;
            std::fprintf(stderr,
                         "error: unknown workload '%s' (valid: %s)\n",
                         o.workload.c_str(), valid.c_str());
            return 2;
        }
    }

    // Injection spec: SS_INJECT from the environment plus --inject,
    // merged (duplicate sites are rejected by the parser, so the two
    // sources cannot silently override each other).
    std::string inject_spec;
    if (const char *env = std::getenv("SS_INJECT"))
        inject_spec = env;
    if (!o.inject.empty())
        inject_spec += (inject_spec.empty() ? "" : ",") + o.inject;
    fault::FaultPlan plan;
    {
        std::string perr;
        if (!fault::FaultPlan::parseSimPlan(inject_spec, plan, perr)) {
            std::fprintf(stderr, "error: %s\n%s", perr.c_str(),
                         fault::FaultPlan::grammarHelp().c_str());
            return 2;
        }
    }
    plan.seed = o.seed;

    if (!o.saveCheckpoint.empty() && o.compare) {
        std::fprintf(stderr,
                     "error: --save-checkpoint cannot be combined "
                     "with --compare (both runs would race writing "
                     "the same file); save it in a single run, then "
                     "--compare --load-checkpoint\n");
        return 2;
    }

    // The workload must outlast the whole sampling span, not just one
    // measurement window (regions defaults to 1 so a full run keeps
    // the historical scale of (insts + warmup) * 2).
    const std::uint64_t per_region = o.insts + o.warmup;
    const std::uint64_t span =
        o.fastforward +
        (std::max(1u, o.sampleRegions) - 1) *
            (o.sampleStride ? o.sampleStride : per_region) +
        per_region;

    sim::Workload wl;
    if (!o.traceFile.empty()) {
        std::string lerr;
        std::optional<trace::LoadedTrace> loaded =
            trace::loadTraceWorkload(o.traceFile, lerr);
        if (!loaded) {
            std::fprintf(stderr, "error: %s\n", lerr.c_str());
            return 2;
        }
        wl = std::move(loaded->workload);
    } else {
        workloads::Params params;
        params.scale = span * 2;
        params.seed = o.seed;
        wl = workloads::buildWorkload(o.workload, params);
    }

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
    sim::RunOptions opts;
    opts.traceFile = o.traceFile;
    opts.maxMainInstructions = o.insts;
    opts.warmupInstructions = o.warmup;
    opts.maxCycles = o.maxCycles;
    opts.watchdogCycles = o.watchdog;
    opts.watchdogEnabled = !o.noWatchdog;
    opts.faults = plan;
    opts.profile = o.profile;
    opts.check = o.check;
    opts.fastForwardInstructions = o.fastforward;
    opts.sampleRegions = o.sampleRegions;
    opts.sampleStride = o.sampleStride;
    opts.warmPredictors = !o.noWarmPredictors;
    opts.warmCaches = !o.noWarmCaches;
    opts.warmInstCache = !o.coldIcache;
    opts.saveCheckpoint = o.saveCheckpoint;
    opts.restoreCheckpoint = o.loadCheckpoint;
    if (o.json || o.intervalsRequested)
        opts.intervalCycles = o.intervalCycles;

    // The event buffer is attached to the run of interest only: the
    // slices run under --compare (the baseline never forks), otherwise
    // whatever single run executes.
    std::unique_ptr<obs::EventBuffer> events;
    if (!o.chromeTracePath.empty())
        events = std::make_unique<obs::EventBuffer>();

    // Crash resilience: intervals accumulate into a caller-owned sink
    // (single-run paths only — --compare runs would race on it) and a
    // crash-dump handler flushes whatever artifacts exist if a run
    // dies through the non-throwing panic/fatal path.
    std::vector<obs::IntervalRecord> interval_live;
    if (!o.compare)
        opts.intervalSink = &interval_live;

    auto writePartialArtifacts = [&]() {
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
    };
    ScopedCrashDump crash_dump(writePartialArtifacts);

    // A failed run still produces a machine-readable record: with
    // --json an {"error": {...}} document goes to stdout, and partial
    // observability artifacts are flushed either way.
    auto simFailure = [&](const std::string &kind,
                          const std::string &message) -> int {
        writePartialArtifacts();
        if (o.json)
            std::printf("%s\n",
                        sim::errorDocument(wl.name, o.seed, kind,
                                           message)
                            .c_str());
        std::fprintf(stderr, "error: simulation failed (%s): %s\n",
                     kind.c_str(), message.c_str());
        return 4;
    };

    if (!o.json)
        std::printf("%s on the %u-wide machine (%llu measured insts, "
                    "%llu warm-up)\n",
                    wl.name.c_str(), o.width,
                    static_cast<unsigned long long>(o.insts),
                    static_cast<unsigned long long>(o.warmup));

    std::vector<bench::WorkloadPerf> runs;
    sim::RunResult result;
    if (o.limit) {
        sim::ExperimentConfig ecfg;
        ecfg.measureInsts = o.insts;
        ecfg.warmupInsts = o.warmup;
        ecfg.seed = o.seed;
        auto lo = sim::limitOptions(wl, ecfg);
        lo.profile = o.profile;
        lo.check = o.check;
        lo.maxCycles = opts.maxCycles;
        lo.watchdogCycles = opts.watchdogCycles;
        lo.watchdogEnabled = opts.watchdogEnabled;
        lo.faults = opts.faults;
        lo.intervalCycles = opts.intervalCycles;
        lo.intervalSink = opts.intervalSink;
        lo.fastForwardInstructions = opts.fastForwardInstructions;
        lo.sampleRegions = opts.sampleRegions;
        lo.sampleStride = opts.sampleStride;
        lo.warmPredictors = opts.warmPredictors;
        lo.warmCaches = opts.warmCaches;
        lo.warmInstCache = opts.warmInstCache;
        lo.saveCheckpoint = opts.saveCheckpoint;
        lo.restoreCheckpoint = opts.restoreCheckpoint;
        lo.events = events.get();
        try {
            ScopedThrowErrors throwing;
            runs.push_back(timedRun("limit", machine, wl, lo, false));
        } catch (const SimError &e) {
            return simFailure(SimError::kindName(e.kind()), e.what());
        }
        result = runs.back().result;
    } else if (o.compare) {
        // The two runs are independent (each gets its own simulator
        // instance; wl is shared read-only), so they overlap on a
        // multicore host. mapSettled isolates a failing configuration:
        // the surviving run's numbers are still printed before the
        // error is reported.
        struct RunSpec
        {
            const char *tag;
            bool slices;
        };
        const std::vector<RunSpec> specs = {{"baseline", false},
                                            {"slices", true}};
        sim::JobPool pool(o.jobs);
        auto settled = pool.mapSettled(specs, [&](const RunSpec &s) {
            sim::Simulator m(cfg);
            sim::RunOptions ro = opts;
            if (s.slices)
                ro.events = events.get();
            return timedRun(s.tag, m, wl, ro, s.slices);
        });
        for (auto &slot : settled) {
            if (!slot.ok())
                return simFailure(
                    slot.status.state == sim::JobState::TimedOut
                        ? "timeout"
                        : "failed",
                    slot.status.error);
            runs.push_back(std::move(*slot.value));
        }
        result = runs.back().result;
    } else {
        opts.events = events.get();
        try {
            ScopedThrowErrors throwing;
            runs.push_back(timedRun(o.slices ? "slices" : "baseline",
                                    machine, wl, opts, o.slices));
        } catch (const SimError &e) {
            return simFailure(SimError::kindName(e.kind()), e.what());
        }
        result = runs.back().result;
    }

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
        meta.injectDescription = plan.empty() ? "" : plan.describe();
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
        if (!plan.empty()) {
            for (const auto &p : runs)
                std::printf("faults[%s]: %s\n", p.name.c_str(),
                            p.result.faultsInjected
                                ? p.result.faultSummary.c_str()
                                : "(armed, none fired)");
        }
        if (checked) {
            if (worst == sim::SimOutcome::CheckerDivergence)
                std::printf("checker: DIVERGED after %llu matched "
                            "retirements\n",
                            static_cast<unsigned long long>(checked));
            else
                std::printf("checker: %llu retirements matched the "
                            "architectural reference\n",
                            static_cast<unsigned long long>(checked));
        }
        if (worst != sim::SimOutcome::Completed)
            std::printf("outcome: %s%s\n", sim::outcomeName(worst),
                        o.allowPartial ? " (partial result accepted)"
                                       : "");
    }

    if (!o.intervalsPath.empty()) {
        std::ofstream os(o.intervalsPath);
        if (!os)
            SS_FATAL("cannot open --intervals file '", o.intervalsPath,
                     "'");
        obs::writeIntervalsCsv(os, result.intervals);
    }

    if (events) {
        std::ofstream os(o.chromeTracePath);
        if (!os)
            SS_FATAL("cannot open --chrome-trace file '",
                     o.chromeTracePath, "'");
        events->writeChromeTrace(os);
        if (!o.json)
            std::printf("chrome trace: %s (%zu events%s)\n",
                        o.chromeTracePath.c_str(), events->size(),
                        events->dropped() ? ", ring overflowed" : "");
    }

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

    if (worst == sim::SimOutcome::CheckerDivergence)
        return 1;
    if (worst != sim::SimOutcome::Completed && !o.allowPartial)
        return 3;
    return 0;
}
