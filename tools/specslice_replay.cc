/**
 * @file
 * Trace-driven replay driver: the consumer side of the sstr trace
 * frontend. Three modes share one binary so the CI replay gate is a
 * single tool:
 *
 *   Emit a reference trace from a registered workload:
 *     specslice_replay --emit --workload vpr --out vpr.sstr
 *         [--insts N --warmup N --seed S]
 *
 *   Stream a trace through the CVP-style predictor clients:
 *     specslice_replay --trace vpr.sstr [--predictor paper,yags]
 *         [--max-records N] [--json]
 *         [--golden golden/vpr.rdigest | --generate golden/vpr.rdigest]
 *
 *   Reproduce the execution-mode golden stats from the trace alone:
 *     specslice_replay --trace vpr.sstr --sim
 *         [--sim-golden golden/vpr.digest] [--json]
 *
 *   Sweep many traces in parallel and record throughput:
 *     specslice_replay --bench --traces a.sstr,b.sstr [--jobs N]
 *
 * --sim rebuilds the embedded workload (program, slices, initial
 * memory) and runs the full timing simulator in both configurations,
 * so the digest it produces is built from the exact same counter set
 * as the committed execution-mode corpus (sim::digestSection); with
 * --sim-golden the committed digest, once it lints clean, supplies the
 * run parameters and the live digest must diff clean against it.
 * Before simulating, the record stream itself is verified against a
 * functional re-execution (verifyTraceFidelity), so both halves of
 * the file — the workload sections and the records — are proven
 * faithful.
 *
 * Replay digests (.rdigest) reuse the digest container/diff rules:
 * integer counters exact, accuracy ratios within epsilon.
 *
 * Exit codes: 0 pass, 1 mismatch or unreadable/corrupt trace,
 * 2 usage errors.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "branch/predictor_client.hh"
#include "check/digest.hh"
#include "sim/job_pool.hh"
#include "sim/result_json.hh"
#include "sim/simulator.hh"
#include "trace/frontend.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

struct Options
{
    // Modes (exactly one).
    bool emit = false;
    bool bench = false;
    std::string traceFile;  ///< replay mode when set (unless --emit)

    // --emit
    std::string workload;
    std::string out;
    std::uint64_t insts = 20'000;
    std::uint64_t warmup = 5'000;
    std::uint64_t seed = 1;

    // replay
    std::vector<std::string> predictors;  ///< empty = all registered
    std::uint64_t maxRecords = 0;
    std::string golden;    ///< diff against this .rdigest
    std::string generate;  ///< (re)write this .rdigest
    bool json = false;

    // --sim
    bool sim = false;
    std::string simGolden;  ///< execution-mode .digest to diff against

    // --bench
    std::vector<std::string> traces;
    unsigned jobs = 0;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: specslice_replay --emit --workload NAME --out FILE "
        "[options]\n"
        "       specslice_replay --trace FILE [options]\n"
        "       specslice_replay --trace FILE --sim [options]\n"
        "       specslice_replay --bench --traces F1,F2,... [options]\n"
        "  --emit            run NAME functionally and write an sstr\n"
        "                    reference trace (program + slices + memory\n"
        "                    + one record per retired instruction)\n"
        "  --workload NAME   workload to trace (emit mode)\n"
        "  --out FILE        trace file to write (emit mode)\n"
        "  --insts N         measured instructions (emit; %llu)\n"
        "  --warmup N        warm-up instructions (emit; %llu); the\n"
        "                    trace records warmup+insts instructions\n"
        "                    and the workload is built at the golden\n"
        "                    corpus scale, so --sim reproduces the\n"
        "                    committed execution-mode digests\n"
        "  --seed N          workload data seed (emit; 1)\n"
        "  --trace FILE      replay FILE's record stream through the\n"
        "                    predictor clients\n"
        "  --predictor A,B   restrict to these clients (default all)\n"
        "  --max-records N   stop after N records (0 = all)\n"
        "  --golden FILE     diff the replay digest against FILE\n"
        "                    (.rdigest; exit 1 on any mismatch)\n"
        "  --generate FILE   (re)write the replay digest to FILE\n"
        "  --sim             rebuild the embedded workload and run the\n"
        "                    full timing simulator (baseline + slices,\n"
        "                    checker on); verifies record fidelity\n"
        "                    against functional re-execution first\n"
        "  --sim-golden FILE execution-mode .digest that supplies the\n"
        "                    run parameters; the live digest must diff\n"
        "                    clean against it\n"
        "  --bench           replay every trace in --traces through\n"
        "                    every client and write BENCH_replay.json\n"
        "  --traces F1,F2    trace files for --bench\n"
        "  --jobs N          parallel replay jobs (bench; default\n"
        "                    SS_JOBS or the core count)\n"
        "  --json            machine-readable result on stdout\n",
        static_cast<unsigned long long>(Options{}.insts),
        static_cast<unsigned long long>(Options{}.warmup));
    std::exit(code);
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
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
        if (a == "--emit") {
            o.emit = true;
        } else if (a == "--workload") {
            o.workload = next();
        } else if (a == "--out") {
            o.out = next();
        } else if (a == "--insts") {
            o.insts = bench::countOption(a, next());
        } else if (a == "--warmup") {
            o.warmup = bench::countOption(a, next());
        } else if (a == "--seed") {
            o.seed = bench::countOption(a, next());
        } else if (a == "--trace") {
            o.traceFile = next();
        } else if (a == "--predictor") {
            o.predictors = splitCsv(next());
        } else if (a == "--max-records") {
            o.maxRecords = bench::countOption(a, next());
        } else if (a == "--golden") {
            o.golden = next();
        } else if (a == "--generate") {
            o.generate = next();
        } else if (a == "--sim") {
            o.sim = true;
        } else if (a == "--sim-golden") {
            o.simGolden = next();
        } else if (a == "--bench") {
            o.bench = true;
        } else if (a == "--traces") {
            o.traces = splitCsv(next());
        } else if (a == "--jobs") {
            o.jobs = bench::countOption<unsigned>(a, next());
            if (o.jobs == 0 || o.jobs > 4096)
                usage(2);
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--help" || a == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "error: unknown option '%s'\n",
                         a.c_str());
            usage(2);
        }
    }
    const int modes = (o.emit ? 1 : 0) + (o.bench ? 1 : 0) +
                      (!o.traceFile.empty() ? 1 : 0);
    if (modes != 1)
        usage(2);
    if (o.emit && (o.workload.empty() || o.out.empty()))
        usage(2);
    if (o.bench && o.traces.empty())
        usage(2);
    if (!o.golden.empty() && !o.generate.empty())
        usage(2);
    if (o.sim && (!o.golden.empty() || !o.generate.empty()))
        usage(2);
    return o;
}

/** The registered client subset this invocation replays. */
std::vector<std::string>
clientNames(const Options &o)
{
    const std::vector<std::string> &all =
        branch::predictorClientNames();
    if (o.predictors.empty())
        return all;
    for (const std::string &name : o.predictors) {
        if (std::find(all.begin(), all.end(), name) == all.end()) {
            std::string valid;
            for (const auto &n : all)
                valid += (valid.empty() ? "" : " ") + n;
            std::fprintf(stderr,
                         "error: unknown predictor '%s' (valid: %s)\n",
                         name.c_str(), valid.c_str());
            std::exit(2);
        }
    }
    return o.predictors;
}

int
runEmit(const Options &o)
{
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

    // Mirror the golden corpus's workload construction exactly: the
    // embedded program/memory must be the same ones specslice_verify
    // ran, or --sim can never reproduce the committed digests.
    workloads::Params wp;
    wp.scale = (o.insts + o.warmup) * 2;
    wp.seed = o.seed;
    sim::Workload wl = workloads::buildWorkload(o.workload, wp);

    std::string err;
    auto res = trace::emitWorkloadTrace(wl, o.seed, o.insts + o.warmup,
                                        o.out, err);
    if (!res) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    if (o.json) {
        json::JsonObject doc;
        doc.field("schema_version", sim::resultSchemaVersion)
            .field("trace", o.out)
            .field("workload", o.workload)
            .field("records", res->records)
            .field("seed", o.seed);
        std::printf("%s\n", doc.str().c_str());
    } else {
        std::printf("wrote %s: %llu records (%s)\n", o.out.c_str(),
                    static_cast<unsigned long long>(res->records),
                    o.workload.c_str());
    }
    return 0;
}

/** Replay one trace file through the named clients. @return false on
 *  a reader error (partial stats are discarded by the caller). */
bool
replayAll(const trace::TraceFile &file,
          const std::vector<std::string> &clients,
          std::uint64_t max_records,
          std::vector<std::pair<std::string, trace::ReplayStats>> &out,
          std::string &error)
{
    for (const std::string &name : clients) {
        auto client = branch::makePredictorClient(name);
        trace::TraceReader rd = file.records();
        trace::ReplayStats stats =
            trace::replayRecords(rd, *client, max_records);
        if (!rd.ok()) {
            error = rd.error();
            return false;
        }
        out.emplace_back(name, stats);
    }
    return true;
}

void
printReplayTable(const trace::TraceMeta &meta,
                 const std::vector<std::pair<std::string,
                                             trace::ReplayStats>> &rows)
{
    std::printf("trace %s: %llu records\n", meta.name.c_str(),
                static_cast<unsigned long long>(meta.recordCount));
    std::printf("%-10s %12s %12s %10s %12s %10s\n", "predictor",
                "cond", "cond_miss", "cond_acc", "indir_miss",
                "ret_miss");
    for (const auto &[name, s] : rows) {
        std::printf("%-10s %12llu %12llu %9.4f%% %12llu %10llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(s.condBranches),
                    static_cast<unsigned long long>(s.condMispredicts),
                    100.0 * s.condAccuracy(),
                    static_cast<unsigned long long>(
                        s.indirectMispredicts),
                    static_cast<unsigned long long>(
                        s.returnMispredicts));
    }
}

/** The per-trace replay document (--json, and --bench rows). */
json::JsonObject
replayDocument(const std::string &path, const trace::TraceMeta &meta,
               const std::vector<std::pair<std::string,
                                           trace::ReplayStats>> &rows)
{
    std::vector<std::string> sections;
    for (const auto &[name, s] : rows) {
        check::Digest::Section sec = trace::replaySection(name, s);
        json::JsonObject js;
        js.field("predictor", name);
        for (const auto &[k, v] : sec.counters)
            js.field(k, v);
        for (const auto &[k, v] : sec.ratios)
            js.field(k, v);
        sections.push_back(js.str());
    }
    json::JsonObject doc;
    doc.field("schema_version", sim::resultSchemaVersion)
        .field("trace", path)
        .field("workload", meta.name)
        .field("records", meta.recordCount)
        .field("seed", meta.dataSeed)
        .raw("predictors", json::jsonArray(sections));
    return doc;
}

int
runReplay(const Options &o)
{
    std::string err;
    auto file = trace::TraceFile::open(o.traceFile, err);
    if (!file) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }

    std::vector<std::pair<std::string, trace::ReplayStats>> rows;
    if (!replayAll(*file, clientNames(o), o.maxRecords, rows, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    check::Digest live = trace::replayDigest(file->meta(), rows);

    if (!o.generate.empty()) {
        // formatDigest stamps the execution-corpus regeneration hint;
        // replace it so the file documents its own provenance.
        std::string text = check::formatDigest(live);
        while (!text.empty() && text[0] == '#')
            text.erase(0, text.find('\n') + 1);
        std::ofstream os(o.generate);
        if (os)
            os << "# specslice replay-accuracy digest (do not edit "
                  "by hand; regenerate:\n"
                  "# specslice_replay --emit --workload NAME --out "
                  "NAME.sstr &&\n"
                  "# specslice_replay --trace NAME.sstr --generate "
                  "golden/NAME.rdigest)\n"
               << text;
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         o.generate.c_str());
            return 1;
        }
        std::printf("wrote %s\n", o.generate.c_str());
        return 0;
    }

    if (o.json)
        std::printf("%s\n",
                    replayDocument(o.traceFile, file->meta(), rows)
                        .str()
                        .c_str());
    else
        printReplayTable(file->meta(), rows);

    if (!o.golden.empty()) {
        std::ifstream is(o.golden);
        if (!is) {
            std::fprintf(stderr, "error: missing golden digest %s\n",
                         o.golden.c_str());
            return 1;
        }
        auto golden = check::parseDigest(is, err);
        if (!golden) {
            std::fprintf(stderr, "error: malformed %s: %s\n",
                         o.golden.c_str(), err.c_str());
            return 1;
        }
        std::vector<std::string> diffs =
            check::diffDigests(*golden, live);
        for (const std::string &d : diffs)
            std::fprintf(stderr, "MISMATCH %s: %s\n",
                         file->meta().name.c_str(), d.c_str());
        if (!diffs.empty())
            return 1;
        std::fprintf(stderr, "replay digest matches %s\n",
                     o.golden.c_str());
    }
    return 0;
}

int
runSim(const Options &o)
{
    std::string err;

    // Fidelity first: the record stream must be exactly what the
    // embedded program does, or the trace is not a faithful witness
    // of the workload it claims to carry.
    auto checked = trace::verifyTraceFidelity(o.traceFile, err);
    if (!checked) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "record fidelity: %llu records match functional "
                 "re-execution\n",
                 static_cast<unsigned long long>(*checked));

    auto loaded = trace::loadTraceWorkload(o.traceFile, err);
    if (!loaded) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }

    // Run parameters: the committed digest's when diffing against one
    // (the corpus, not the invoker, defines the regression run —
    // exactly specslice_verify's rule), this binary's golden-matching
    // defaults otherwise.
    check::Digest golden;
    bool haveGolden = false;
    if (!o.simGolden.empty()) {
        std::ifstream is(o.simGolden);
        if (!is) {
            std::fprintf(stderr, "error: missing golden digest %s\n",
                         o.simGolden.c_str());
            return 1;
        }
        auto parsed = check::parseDigest(is, err);
        if (!parsed) {
            std::fprintf(stderr, "error: malformed %s: %s\n",
                         o.simGolden.c_str(), err.c_str());
            return 1;
        }
        // Lint first, as specslice_verify does: the run parameters
        // below are taken from the digest on trust.
        std::vector<std::string> problems = check::lintDigest(*parsed);
        for (const std::string &msg : problems)
            std::fprintf(stderr, "error: %s: lint: %s\n",
                         o.simGolden.c_str(), msg.c_str());
        if (!problems.empty())
            return 1;
        golden = std::move(*parsed);
        haveGolden = true;
    }

    const std::uint64_t insts = haveGolden ? golden.insts : o.insts;
    const std::uint64_t warmup = haveGolden ? golden.warmup : o.warmup;
    const unsigned width = haveGolden ? golden.width : 4u;
    const unsigned threads = haveGolden ? golden.threads : 4u;

    sim::MachineConfig cfg = width == 8
                                 ? sim::MachineConfig::eightWide()
                                 : sim::MachineConfig::fourWide();
    cfg.numThreads = threads;
    sim::Simulator machine(cfg);

    sim::RunOptions opts;
    opts.maxMainInstructions = insts;
    opts.warmupInstructions = warmup;
    opts.check = true;
    if (haveGolden) {
        opts.fastForwardInstructions = golden.fastforward;
        opts.sampleRegions = static_cast<unsigned>(golden.regions);
        opts.sampleStride = golden.stride;
    }

    check::Digest live;
    live.workload = loaded->workload.name;
    live.insts = insts;
    live.warmup = warmup;
    live.seed = loaded->meta.dataSeed;
    live.width = width;
    live.threads = threads;
    if (haveGolden) {
        live.fastforward = golden.fastforward;
        live.regions = golden.regions;
        live.stride = golden.stride;
    }
    live.sections.push_back(sim::digestSection(
        "baseline", machine.runBaseline(loaded->workload, opts)));
    live.sections.push_back(sim::digestSection(
        "slices", machine.run(loaded->workload, opts, true)));

    if (o.json)
        std::printf("%s\n",
                    json::JsonObject()
                        .field("schema_version",
                               sim::resultSchemaVersion)
                        .field("trace", o.traceFile)
                        .field("workload", live.workload)
                        .field("records", loaded->meta.recordCount)
                        .raw("digest",
                             "\"" +
                                 json::jsonEscape(
                                     check::formatDigest(live)) +
                                 "\"")
                        .str()
                        .c_str());
    else
        std::printf("%s", check::formatDigest(live).c_str());

    if (haveGolden) {
        std::vector<std::string> diffs =
            check::diffDigests(golden, live);
        for (const std::string &d : diffs)
            std::fprintf(stderr, "MISMATCH %s: %s\n",
                         live.workload.c_str(), d.c_str());
        if (!diffs.empty())
            return 1;
        std::fprintf(stderr,
                     "trace-mode digest matches %s (execution-mode "
                     "stats reproduced from the trace alone)\n",
                     o.simGolden.c_str());
    }
    return 0;
}

int
runBench(const Options &o)
{
    const std::vector<std::string> clients = clientNames(o);
    struct Row
    {
        std::string path;
        trace::TraceMeta meta;
        std::vector<std::pair<std::string, trace::ReplayStats>> rows;
        double wallSeconds = 0.0;
        std::string error;
    };

    sim::JobPool pool(o.jobs);
    const auto sweep_start = std::chrono::steady_clock::now();
    std::vector<Row> results =
        pool.map(o.traces, [&](const std::string &path) {
            Row row;
            row.path = path;
            const auto start = std::chrono::steady_clock::now();
            std::string err;
            auto file = trace::TraceFile::open(path, err);
            if (!file) {
                row.error = err;
                return row;
            }
            row.meta = file->meta();
            if (!replayAll(*file, clients, o.maxRecords, row.rows,
                           err))
                row.error = err;
            row.wallSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            return row;
        });
    const double sweep_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();

    bool failed = false;
    std::vector<std::string> elems;
    std::uint64_t total_records = 0;
    for (const Row &row : results) {
        if (!row.error.empty()) {
            std::fprintf(stderr, "error: %s: %s\n", row.path.c_str(),
                         row.error.c_str());
            failed = true;
            continue;
        }
        json::JsonObject doc =
            replayDocument(row.path, row.meta, row.rows);
        doc.field("wall_seconds", row.wallSeconds)
            .field("records_per_sec",
                   row.wallSeconds > 0.0
                       ? static_cast<double>(row.meta.recordCount) *
                             static_cast<double>(clients.size()) /
                             row.wallSeconds
                       : 0.0);
        elems.push_back(doc.str());
        total_records += row.meta.recordCount;
        if (!o.json)
            printReplayTable(row.meta, row.rows);
    }

    json::JsonObject aggregate;
    aggregate.field("traces", std::uint64_t{elems.size()})
        .field("records", total_records)
        .field("sweep_wall_seconds", sweep_wall)
        .field("sweep_records_per_sec",
               sweep_wall > 0.0
                   ? static_cast<double>(total_records) *
                         static_cast<double>(clients.size()) /
                         sweep_wall
                   : 0.0);
    json::JsonObject doc;
    doc.field("schema_version", sim::resultSchemaVersion)
        .field("bench", std::string("replay"))
        .raw("traces", json::jsonArray(elems))
        .raw("aggregate", aggregate.str());

    const std::string path = "BENCH_replay.json";
    std::ofstream os(path);
    os << doc.str() << "\n";
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return 1;
    }
    if (o.json)
        std::printf("%s\n", doc.str().c_str());
    else
        std::printf("wrote %s (%zu traces)\n", path.c_str(),
                    elems.size());
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    if (o.emit)
        return runEmit(o);
    if (o.bench)
        return runBench(o);
    if (o.sim)
        return runSim(o);
    return runReplay(o);
}
