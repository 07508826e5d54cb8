/**
 * @file
 * The golden-stats regression gate: runs every workload in its
 * baseline and slice-enabled configurations — with the retirement
 * checker co-simulating — and diffs the resulting stat digests
 * against the committed corpus under golden/.
 *
 *   specslice_verify --golden golden/            # regression check
 *   specslice_verify --generate golden/          # refresh the corpus
 *   specslice_verify --golden golden/ --jobs 8 --workloads vpr,mcf
 *   specslice_verify --golden golden/ --inject slice.kill@n3 --json
 *
 * Verification reads the run parameters (insts/warmup/seed/width/
 * threads) out of each digest, so the committed corpus — not the
 * invoker — defines the regression workload. Comparison rules:
 * integer counters must match exactly; cycle-derived ratios compare
 * within a relative epsilon (decimal round-trip). Any retirement-
 * checker divergence fails the workload with a first-divergence
 * report.
 *
 * With --inject the gate flips into fault-tolerance mode: each
 * workload runs under the injection plan with the checker
 * co-simulating, and PASSES only when (a) the checker reports zero
 * divergences, (b) the run completes (no watchdog/cycle-limit
 * truncation), and (c) the stats digest actually differs from the
 * golden one — i.e. the faults perturbed timing without corrupting
 * architectural state. The counter diff is skipped (perturbed stats
 * are the point).
 *
 * One failing workload does not stop the sweep: each job runs under
 * ScopedThrowErrors, so a workload whose run panics, is fatal or
 * throws is reported in the summary (state "error") while the rest
 * complete. Exits 0 only when every workload passes; 2 on usage
 * errors.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "check/digest.hh"
#include "common/failure.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "sim/job_pool.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

struct RunParams
{
    std::uint64_t insts = 20'000;
    std::uint64_t warmup = 5'000;
    std::uint64_t seed = 1;
    unsigned width = 4;
    unsigned threads = 4;
    // Sampling configuration (all 0 = full run). Recorded in the
    // digest, so a sampled corpus re-verifies with the same regions.
    std::uint64_t fastforward = 0;
    unsigned regions = 0;
    std::uint64_t stride = 0;
};

struct Options
{
    std::string dir = "golden";
    bool generate = false;
    std::vector<std::string> workloads;  ///< empty = all (+ coverage)
    RunParams params;
    unsigned jobs = 0;  ///< 0 = SS_JOBS or hardware concurrency
    bool check = true;
    bool verbose = false;
    bool json = false;            ///< sweep summary JSON on stdout
    fault::FaultPlan inject;      ///< plan applied to every workload
    /** Per-workload plans (--inject-workload NAME:SPEC); override the
     *  global plan for that workload. */
    std::map<std::string, fault::FaultPlan> injectWorkload;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: specslice_verify [--golden DIR | --generate DIR] "
        "[options]\n"
        "  --golden DIR      diff live runs against the digest corpus\n"
        "                    in DIR (default mode, DIR 'golden')\n"
        "  --generate DIR    (re)write the digest corpus into DIR\n"
        "  --workloads A,B   restrict to these workloads (default all;\n"
        "                    a restricted verify skips the coverage\n"
        "                    check)\n"
        "  --inject SPEC     fault-tolerance mode: run every workload\n"
        "                    under this injection plan; pass = checker\n"
        "                    clean + run completed + stats perturbed\n"
        "                    (counter diff skipped; not with\n"
        "                    --generate)\n"
        "  --inject-workload NAME:SPEC  per-workload plan (overrides\n"
        "                    --inject for NAME; repeatable)\n"
        "  --json            print the sweep summary as JSON on\n"
        "                    stdout\n"
        "  --insts N         measured instructions (generate; %llu)\n"
        "  --warmup N        warm-up instructions (generate; %llu)\n"
        "  --fastforward N   generate: skip N instructions before the\n"
        "                    measured region(s); recorded in the\n"
        "                    digest, so verify replays it\n"
        "  --sample R        generate: aggregate R sampled regions of\n"
        "                    warmup+insts each (recorded in digest)\n"
        "  --sample-stride N generate: instructions between region\n"
        "                    starts (default warmup+insts)\n"
        "  --seed N          workload seed (generate; 1)\n"
        "  --width 4|8       machine width (generate; 4)\n"
        "  --threads N       SMT contexts (generate; 4)\n"
        "  --jobs N          parallel workload jobs (default SS_JOBS\n"
        "                    or the core count)\n"
        "  --no-check        skip retirement-checker co-simulation\n"
        "  --verbose         per-workload detail\n",
        static_cast<unsigned long long>(RunParams{}.insts),
        static_cast<unsigned long long>(RunParams{}.warmup));
    std::exit(code);
}

fault::FaultPlan
parsePlanOrDie(const std::string &spec)
{
    fault::FaultPlan plan;
    std::string err;
    if (!fault::FaultPlan::parse(spec, plan, err)) {
        std::fprintf(stderr, "error: %s\n%s", err.c_str(),
                     fault::FaultPlan::grammarHelp().c_str());
        std::exit(2);
    }
    return plan;
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
        if (a == "--golden") {
            o.dir = next();
            o.generate = false;
        } else if (a == "--generate") {
            o.dir = next();
            o.generate = true;
        } else if (a == "--workloads") {
            std::stringstream ss(next());
            std::string name;
            while (std::getline(ss, name, ','))
                if (!name.empty())
                    o.workloads.push_back(name);
        } else if (a == "--inject") {
            o.inject = parsePlanOrDie(next());
        } else if (a == "--inject-workload") {
            std::string v = next();
            auto colon = v.find(':');
            if (colon == std::string::npos || colon == 0) {
                std::fprintf(stderr,
                             "error: --inject-workload wants "
                             "NAME:SPEC, got '%s'\n",
                             v.c_str());
                std::exit(2);
            }
            o.injectWorkload[v.substr(0, colon)] =
                parsePlanOrDie(v.substr(colon + 1));
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--insts") {
            o.params.insts = bench::countOption(a, next());
        } else if (a == "--warmup") {
            o.params.warmup = bench::countOption(a, next());
        } else if (a == "--fastforward") {
            o.params.fastforward = bench::countOption(a, next());
        } else if (a == "--sample") {
            o.params.regions = bench::countOption<unsigned>(a, next());
            if (o.params.regions == 0)
                usage(2);
        } else if (a == "--sample-stride") {
            o.params.stride = bench::countOption(a, next());
            if (o.params.stride == 0)
                usage(2);
        } else if (a == "--seed") {
            o.params.seed = bench::countOption(a, next());
        } else if (a == "--width") {
            o.params.width = bench::countOption<unsigned>(a, next());
            if (o.params.width != 4 && o.params.width != 8)
                usage(2);
        } else if (a == "--threads") {
            o.params.threads = bench::countOption<unsigned>(a, next());
            if (o.params.threads == 0)
                usage(2);
        } else if (a == "--jobs") {
            o.jobs = bench::countOption<unsigned>(a, next());
            if (o.jobs == 0 || o.jobs > 4096)
                usage(2);
        } else if (a == "--no-check") {
            o.check = false;
        } else if (a == "--check") {
            o.check = true;
        } else if (a == "--verbose" || a == "-v") {
            o.verbose = true;
        } else if (a == "--help" || a == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "error: unknown option '%s'\n",
                         a.c_str());
            usage(2);
        }
    }
    if (o.generate &&
        (!o.inject.empty() || !o.injectWorkload.empty())) {
        std::fprintf(stderr,
                     "error: --inject cannot be combined with "
                     "--generate (the corpus must be built from "
                     "unperturbed runs)\n");
        std::exit(2);
    }
    return o;
}

/** The injection plan for one workload ({} when injection is off). */
const fault::FaultPlan &
planFor(const std::string &name, const Options &o)
{
    auto it = o.injectWorkload.find(name);
    return it != o.injectWorkload.end() ? it->second : o.inject;
}

/** One config's digest section from a finished run. The counter set
 *  lives in sim::digestSection so specslice_replay --sim builds its
 *  trace-mode sections from the exact same fields. */
check::Digest::Section
sectionFrom(const std::string &config, const sim::RunResult &r)
{
    return sim::digestSection(config, r);
}

/** A live two-config run: the digest plus robustness telemetry. */
struct LiveRun
{
    check::Digest digest;
    sim::SimOutcome worst = sim::SimOutcome::Completed;
    bool diverged = false;
    std::string checkReport;
    std::uint64_t faultsInjected = 0;
    std::string faultSummary;
};

/** Run one workload in both configurations and digest the results. */
LiveRun
buildLiveRun(const std::string &name, const RunParams &p, bool check,
             const fault::FaultPlan &plan)
{
    // The workload must outlast the whole sampling span; with no
    // sampling this reduces to the historical (insts + warmup) * 2.
    const std::uint64_t per_region = p.insts + p.warmup;
    const std::uint64_t span =
        p.fastforward +
        (std::max(1u, p.regions) - 1) *
            (p.stride ? p.stride : per_region) +
        per_region;

    workloads::Params wp;
    wp.scale = span * 2;
    wp.seed = p.seed;
    sim::Workload wl = workloads::buildWorkload(name, wp);

    sim::MachineConfig cfg = p.width == 8
                                 ? sim::MachineConfig::eightWide()
                                 : sim::MachineConfig::fourWide();
    cfg.numThreads = p.threads;
    sim::Simulator machine(cfg);

    sim::RunOptions opts;
    opts.maxMainInstructions = p.insts;
    opts.warmupInstructions = p.warmup;
    opts.check = check;
    opts.faults = plan;
    opts.faults.seed = p.seed;
    // Under injection, a divergence must latch into the result (and
    // fail the workload with a report) instead of killing the sweep.
    opts.checkFatal = plan.empty();
    opts.fastForwardInstructions = p.fastforward;
    opts.sampleRegions = p.regions;
    opts.sampleStride = p.stride;

    LiveRun live;
    live.digest.workload = name;
    live.digest.insts = p.insts;
    live.digest.warmup = p.warmup;
    live.digest.seed = p.seed;
    live.digest.width = p.width;
    live.digest.threads = p.threads;
    live.digest.fastforward = p.fastforward;
    live.digest.regions = p.regions;
    live.digest.stride = p.stride;

    auto absorb = [&](const char *config, const sim::RunResult &r) {
        live.digest.sections.push_back(sectionFrom(config, r));
        if (sim::isWorseOutcome(r.outcome, live.worst))
            live.worst = r.outcome;
        if (r.checkDiverged && !live.diverged) {
            live.diverged = true;
            live.checkReport = r.checkReport;
        }
        live.faultsInjected += r.faultsInjected();
        if (r.faultsInjected()) {
            if (!live.faultSummary.empty())
                live.faultSummary += "; ";
            live.faultSummary += config;
            live.faultSummary += ": ";
            live.faultSummary += r.faultSummary();
        }
    };
    absorb("baseline", machine.runBaseline(wl, opts));
    absorb("slices", machine.run(wl, opts, true));
    return live;
}

std::filesystem::path
digestPath(const std::string &dir, const std::string &workload)
{
    return std::filesystem::path(dir) / (workload + ".digest");
}

struct Outcome
{
    std::string name;
    bool ok = false;
    /** ok | mismatch | error (for --json). */
    std::string state = "mismatch";
    std::vector<std::string> messages;
    /** Wall time of the workload's job, in seconds. */
    double wallSeconds = 0.0;
};

Outcome
verifyWorkload(const std::string &name, const Options &o)
{
    Outcome out;
    out.name = name;

    std::ifstream is(digestPath(o.dir, name));
    if (!is) {
        out.messages.push_back("missing digest file " +
                               digestPath(o.dir, name).string());
        return out;
    }
    std::string perr;
    auto golden = check::parseDigest(is, perr);
    if (!golden) {
        out.messages.push_back("malformed digest: " + perr);
        return out;
    }
    for (std::string &msg : check::lintDigest(*golden))
        out.messages.push_back("lint: " + std::move(msg));
    if (!out.messages.empty())
        return out;

    // The committed digest defines the regression run.
    RunParams p;
    p.insts = golden->insts;
    p.warmup = golden->warmup;
    p.seed = golden->seed;
    p.width = golden->width;
    p.threads = golden->threads;
    p.fastforward = golden->fastforward;
    p.regions = static_cast<unsigned>(golden->regions);
    p.stride = golden->stride;

    const fault::FaultPlan &plan = planFor(name, o);
    LiveRun live = buildLiveRun(name, p, o.check, plan);

    if (plan.empty()) {
        out.messages = check::diffDigests(*golden, live.digest);
        out.ok = out.messages.empty();
        if (out.ok)
            out.state = "ok";
        return out;
    }

    // Fault-tolerance mode: stats are expected to differ; the pass
    // criteria are architectural cleanliness and forward progress.
    if (live.diverged)
        out.messages.push_back(
            "checker diverged under injection '" + plan.describe() +
            "':\n" + live.checkReport);
    if (live.worst != sim::SimOutcome::Completed)
        out.messages.push_back(
            std::string("run did not complete under injection: "
                        "outcome ") +
            sim::outcomeName(live.worst));
    bool perturbed = !check::diffDigests(*golden, live.digest).empty();
    if (live.faultsInjected > 0 && !perturbed)
        out.messages.push_back(
            "injection '" + plan.describe() + "' fired " +
            std::to_string(live.faultsInjected) +
            " times but did not perturb the stats digest (identical "
            "to golden — fault has no observable effect here)");
    out.ok = out.messages.empty();
    if (out.ok) {
        out.state = "ok";
        if (live.faultsInjected == 0)
            out.messages.push_back(
                "injection '" + plan.describe() +
                "' armed but never fired (site not exercised by this "
                "workload); digest matches golden");
        else
            out.messages.push_back(
                "checker clean under '" + plan.describe() + "' (" +
                std::to_string(live.faultsInjected) +
                " faults fired: " + live.faultSummary + ")");
    }
    return out;
}

Outcome
generateWorkload(const std::string &name, const Options &o)
{
    Outcome out;
    out.name = name;
    check::Digest d =
        buildLiveRun(name, o.params, o.check, fault::FaultPlan{}).digest;
    for (std::string &msg : check::lintDigest(d)) {
        // A digest that fails its own lint must never reach golden/.
        out.messages.push_back("generated digest fails lint: " +
                               std::move(msg));
    }
    if (!out.messages.empty())
        return out;

    auto path = digestPath(o.dir, name);
    std::ofstream os(path);
    if (!os) {
        out.messages.push_back("cannot write " + path.string());
        return out;
    }
    os << check::formatDigest(d);
    out.ok = static_cast<bool>(os);
    if (out.ok)
        out.state = "ok";
    else
        out.messages.push_back("write failed: " + path.string());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);

    const std::vector<std::string> &all = workloads::allWorkloadNames();
    std::vector<std::string> names =
        o.workloads.empty() ? all : o.workloads;
    auto known = [&](const std::string &n) {
        return std::find(all.begin(), all.end(), n) != all.end();
    };
    std::string valid;
    for (const auto &n : all)
        valid += (valid.empty() ? "" : " ") + n;
    for (const std::string &n : names) {
        if (!known(n)) {
            std::fprintf(stderr,
                         "error: unknown workload '%s' (valid: %s)\n",
                         n.c_str(), valid.c_str());
            return 2;
        }
    }
    for (const auto &[n, plan] : o.injectWorkload) {
        if (!known(n)) {
            std::fprintf(stderr,
                         "error: --inject-workload names unknown "
                         "workload '%s' (valid: %s)\n",
                         n.c_str(), valid.c_str());
            return 2;
        }
    }

    if (o.generate)
        std::filesystem::create_directories(o.dir);

    sim::JobPool pool(o.jobs);
    std::vector<Outcome> outcomes =
        pool.map(names, [&](const std::string &name) {
            const auto start = std::chrono::steady_clock::now();
            Outcome out;
            try {
                ScopedThrowErrors throwing;
                out = o.generate ? generateWorkload(name, o)
                                 : verifyWorkload(name, o);
            } catch (const std::exception &e) {
                out.name = name;
                out.state = "error";
                out.messages.push_back(e.what());
            }
            out.wallSeconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  start)
                                  .count();
            return out;
        });

    bool failed = false;
    for (const Outcome &out : outcomes) {
        if (out.ok)
            continue;
        failed = true;
        if (o.json)
            continue;
        std::printf("%-8s FAILED (%s)\n", out.name.c_str(),
                    out.state.c_str());
        for (const std::string &m : out.messages)
            std::printf("    %s\n", m.c_str());
    }
    if (!o.json) {
        for (const Outcome &out : outcomes) {
            if (!out.ok || !(o.verbose || o.generate))
                continue;
            std::printf("%-8s %s\n", out.name.c_str(),
                        o.generate ? "digest written" : "ok");
            if (o.verbose)
                for (const std::string &m : out.messages)
                    std::printf("    %s\n", m.c_str());
        }
    }

    // Coverage: a full verify also rejects stray digests so the
    // corpus cannot silently drift from the workload suite.
    std::vector<std::string> coverage_errors;
    if (!o.generate && o.workloads.empty()) {
        std::set<std::string> known_set(all.begin(), all.end());
        std::error_code ec;
        for (const auto &e :
             std::filesystem::directory_iterator(o.dir, ec)) {
            if (e.path().extension() != ".digest")
                continue;
            std::string stem = e.path().stem().string();
            if (!known_set.count(stem)) {
                failed = true;
                coverage_errors.push_back(
                    "stray digest for unknown workload: " +
                    e.path().string());
            }
        }
        if (ec) {
            failed = true;
            coverage_errors.push_back("cannot scan " + o.dir + ": " +
                                      ec.message());
        }
        if (!o.json)
            for (const std::string &m : coverage_errors)
                std::printf("%s\n", m.c_str());
    }

    std::size_t ok_count = static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](const Outcome &x) { return x.ok; }));

    if (o.json) {
        std::vector<std::string> elems;
        for (const Outcome &out : outcomes) {
            bench::JsonObject rec;
            rec.field("name", out.name)
                .raw("ok", out.ok ? "true" : "false")
                .field("state", out.state)
                .field("wall_seconds", out.wallSeconds);
            std::vector<std::string> msgs;
            for (const std::string &m : out.messages)
                msgs.push_back("\"" + bench::jsonEscape(m) + "\"");
            rec.raw("messages", bench::jsonArray(msgs));
            elems.push_back(rec.str());
        }
        std::vector<std::string> cov;
        for (const std::string &m : coverage_errors)
            cov.push_back("\"" + bench::jsonEscape(m) + "\"");
        bench::JsonObject doc;
        doc.field("schema_version", bench::benchSchemaVersion)
            .field("mode",
                   std::string(o.generate ? "generate" : "verify"));
        if (!o.inject.empty())
            doc.field("inject", o.inject.describe());
        doc.field("check", std::uint64_t{o.check ? 1u : 0u})
            .raw("workloads", bench::jsonArray(elems))
            .raw("coverage_errors", bench::jsonArray(cov))
            .field("ok_count", std::uint64_t{ok_count})
            .field("total", std::uint64_t{outcomes.size()});
        doc.raw("failed", failed ? "true" : "false");
        std::printf("%s\n", doc.str().c_str());
    } else {
        std::printf("%s: %zu/%zu workloads %s (%s)\n",
                    o.generate ? "generate" : "verify", ok_count,
                    outcomes.size(),
                    o.generate ? "written" : "match",
                    o.check ? "retirement checker on"
                            : "retirement checker off");
    }
    return failed ? 1 : 0;
}
