/**
 * @file
 * The golden regression gate, and the one tool that owns golden/.
 * Each workload job runs the workload in its baseline and
 * slice-enabled configurations — with the retirement checker
 * co-simulating — and digests the timing core's counters
 * (<wl>.digest). It then emits the same workload's trace
 * (warmup+insts retired instructions, to a per-process temporary
 * file) and replays it through every registered predictor client
 * (<wl>.rdigest). Both are diffed against the committed corpus, or
 * written under --generate.
 *
 *   specslice_verify --golden golden/            # regression check
 *   specslice_verify --generate golden/          # refresh the corpus
 *   specslice_verify --golden golden/ --jobs 8 --workloads vpr,mcf --json
 *
 * Verification reads the run parameters (insts/warmup/seed/width/
 * threads) out of each .digest, so the committed corpus — not the
 * invoker — defines the regression workload. Comparison rules:
 * integer counters must match exactly; cycle-derived ratios compare
 * within a relative epsilon (decimal round-trip). Any retirement-
 * checker divergence is fatal to the workload's run and fails the
 * workload (state "error") with a first-divergence report. A full
 * verify (no --workloads) also fails on a digest of either kind that
 * names no workload.
 *
 * One failing workload does not stop the sweep: each job runs under
 * ScopedThrowErrors, so a workload whose run panics, is fatal or
 * throws is reported in the summary (state "error") while the rest
 * complete. Exits 0 only when every workload passes; 2 on usage
 * errors.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "branch/predictor_client.hh"
#include "check/digest.hh"
#include "common/failure.hh"
#include "sim/experiments.hh"
#include "sim/job_pool.hh"
#include "sim/simulator.hh"
#include "trace/frontend.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
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
    bool json = false;  ///< sweep summary JSON on stdout
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: specslice_verify [--golden DIR | --generate DIR] "
        "[options]\n"
        "  --golden DIR      diff live runs and trace replays against\n"
        "                    the corpus in DIR: <wl>.digest and\n"
        "                    <wl>.rdigest (default mode, DIR 'golden')\n"
        "  --generate DIR    (re)write both digests of every workload\n"
        "                    into DIR\n"
        "  --workloads A,B   restrict to these workloads (default all;\n"
        "                    a restricted verify skips the coverage\n"
        "                    check)\n"
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
        "  --threads N       SMT contexts, 1..%u (generate; 4)\n"
        "  --jobs N          parallel workload jobs (default SS_JOBS\n"
        "                    or the core count)\n"
        "  --no-check        skip retirement-checker co-simulation\n"
        "  --verbose         per-workload detail\n",
        static_cast<unsigned long long>(RunParams{}.insts),
        static_cast<unsigned long long>(RunParams{}.warmup),
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
            if (o.params.threads == 0 ||
                o.params.threads > core::maxThreads) {
                std::fprintf(stderr,
                             "error: --threads %u out of range (valid: "
                             "1..%u)\n",
                             o.params.threads, core::maxThreads);
                std::exit(2);
            }
        } else if (a == "--jobs") {
            o.jobs = bench::countOption<unsigned>(a, next());
            if (o.jobs == 0 || o.jobs > 4096)
                usage(2);
        } else if (a == "--no-check") {
            o.check = false;
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
    return o;
}

/** What one workload job measured, as the two golden documents. */
struct LiveDigests
{
    check::Digest exec;    ///< <wl>.digest: baseline and slices runs
    check::Digest replay;  ///< <wl>.rdigest: every predictor client
};

/** Emit wl's first `records` retired instructions as a trace and
 *  replay it through every registered predictor client. */
check::Digest
liveReplayDigest(const sim::Workload &wl, std::uint64_t seed,
                 std::uint64_t records)
{
    // Jobs run in parallel, and so may other verifies: one file per
    // process and workload.
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("specslice_verify_" + std::to_string(::getpid()) + "_" +
         wl.name + ".sstr");
    std::string err;
    std::optional<trace::TraceFile> file;
    if (trace::emitWorkloadTrace(wl, seed, records, path.string(), err))
        file = trace::TraceFile::open(path.string(), err);
    // The open file stays mapped.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::optional<trace::ReplayRows> rows;
    if (file)
        rows = trace::replayClients(
            *file, branch::predictorClientNames(), err);
    if (!rows)
        throw std::runtime_error("replay trace: " + err);
    return trace::replayDigest(file->meta(), *rows);
}

/** Run one workload in both configurations and replay its trace. */
LiveDigests
liveDigests(const std::string &name, const RunParams &p, bool check)
{
    sim::RunOptions opts;
    opts.maxMainInstructions = p.insts;
    opts.warmupInstructions = p.warmup;
    opts.check = check;
    opts.fastForwardInstructions = p.fastforward;
    opts.sampleRegions = p.regions;
    opts.sampleStride = p.stride;
    const sim::Workload wl = sim::buildBenchWorkload(name, p.seed, opts);

    sim::MachineConfig cfg = p.width == 8
                                 ? sim::MachineConfig::eightWide()
                                 : sim::MachineConfig::fourWide();
    cfg.numThreads = p.threads;
    sim::Simulator machine(cfg);

    check::Digest d;
    d.workload = name;
    d.insts = p.insts;
    d.warmup = p.warmup;
    d.seed = p.seed;
    d.width = p.width;
    d.threads = p.threads;
    d.fastforward = p.fastforward;
    d.regions = p.regions;
    d.stride = p.stride;
    d.sections.push_back(
        sim::digestSection("baseline", machine.runBaseline(wl, opts)));
    d.sections.push_back(
        sim::digestSection("slices", machine.run(wl, opts, true)));
    return {std::move(d), liveReplayDigest(wl, p.seed, p.insts + p.warmup)};
}

/** The golden document kinds: timing core, and trace replay. */
constexpr const char *execExt = ".digest";
constexpr const char *replayExt = ".rdigest";

std::filesystem::path
digestPath(const std::string &dir, const std::string &workload,
           const char *ext)
{
    return std::filesystem::path(dir) / (workload + ext);
}

/** Parse the committed digest at path. @return nullopt, and a message
 *  naming the file, when it is missing or malformed. */
std::optional<check::Digest>
readDigest(const std::filesystem::path &path,
           std::vector<std::string> &messages)
{
    std::ifstream is(path);
    if (!is) {
        messages.push_back("missing digest file " + path.string());
        return std::nullopt;
    }
    std::string perr;
    auto d = check::parseDigest(is, perr);
    if (!d)
        messages.push_back("malformed digest " + path.string() + ": " +
                           perr);
    return d;
}

/** Append golden-vs-live mismatches, each prefixed by the file name. */
void
diffInto(const std::filesystem::path &path, const check::Digest &golden,
         const check::Digest &live, std::vector<std::string> &messages)
{
    for (const std::string &m : check::diffDigests(golden, live))
        messages.push_back(path.filename().string() + ": " + m);
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

    const auto exec_path = digestPath(o.dir, name, execExt);
    auto golden = readDigest(exec_path, out.messages);
    if (!golden)
        return out;
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

    const LiveDigests live = liveDigests(name, p, o.check);
    diffInto(exec_path, *golden, live.exec, out.messages);
    const auto replay_path = digestPath(o.dir, name, replayExt);
    if (auto replay = readDigest(replay_path, out.messages))
        diffInto(replay_path, *replay, live.replay, out.messages);
    out.ok = out.messages.empty();
    if (out.ok)
        out.state = "ok";
    return out;
}

Outcome
generateWorkload(const std::string &name, const Options &o)
{
    Outcome out;
    out.name = name;
    const LiveDigests live = liveDigests(name, o.params, o.check);
    for (std::string &msg : check::lintDigest(live.exec)) {
        // A digest that fails its own lint must never reach golden/.
        out.messages.push_back("generated digest fails lint: " +
                               std::move(msg));
    }
    if (!out.messages.empty())
        return out;

    auto write = [&](const char *ext, const check::Digest &d) {
        const auto path = digestPath(o.dir, name, ext);
        std::ofstream os(path);
        os << check::formatDigest(d);
        if (!os)
            out.messages.push_back("cannot write " + path.string());
    };
    write(execExt, live.exec);
    write(replayExt, live.replay);
    out.ok = out.messages.empty();
    if (out.ok)
        out.state = "ok";
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
                        o.generate ? "digests written" : "ok");
            if (o.verbose)
                for (const std::string &m : out.messages)
                    std::printf("    %s\n", m.c_str());
        }
    }

    // Coverage: a full verify also rejects stray digests so the
    // corpus cannot silently drift from the workload suite. A missing
    // one already failed its workload's job.
    std::vector<std::string> coverage_errors;
    if (!o.generate && o.workloads.empty()) {
        std::set<std::string> known_set(all.begin(), all.end());
        std::error_code ec;
        for (const auto &e :
             std::filesystem::directory_iterator(o.dir, ec)) {
            const auto ext = e.path().extension();
            if (ext != execExt && ext != replayExt)
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
            json::JsonObject rec;
            rec.field("name", out.name)
                .raw("ok", out.ok ? "true" : "false")
                .field("state", out.state)
                .field("wall_seconds", out.wallSeconds);
            std::vector<std::string> msgs;
            for (const std::string &m : out.messages)
                msgs.push_back("\"" + json::jsonEscape(m) + "\"");
            rec.raw("messages", json::jsonArray(msgs));
            elems.push_back(rec.str());
        }
        std::vector<std::string> cov;
        for (const std::string &m : coverage_errors)
            cov.push_back("\"" + json::jsonEscape(m) + "\"");
        json::JsonObject doc;
        doc.field("schema_version", sim::resultSchemaVersion)
            .field("mode",
                   std::string(o.generate ? "generate" : "verify"))
            .field("check", std::uint64_t{o.check ? 1u : 0u})
            .raw("workloads", json::jsonArray(elems))
            .raw("coverage_errors", json::jsonArray(cov))
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
