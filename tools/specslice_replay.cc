/**
 * @file
 * Trace-driven replay driver: the consumer side of the sstr trace
 * frontend. Two modes:
 *
 *   Emit a reference trace from a registered workload:
 *     specslice_replay --emit --workload vpr --out vpr.sstr
 *         [--insts N --warmup N --seed S]
 *
 *   Replay traces in parallel through the CVP-style predictor
 *   clients, print each trace's table and record throughput:
 *     specslice_replay --bench --traces a.sstr,b.sstr
 *         [--predictor paper,yags] [--jobs N] [--json]
 *
 * --emit builds the workload the way the golden corpus does, so the
 * trace header names (workload, scale, seed) the run specslice_verify
 * checks. The timing core's numbers come from that run; a trace holds
 * only the retired-instruction records. The golden replay digests
 * (golden/<wl>.rdigest) are specslice_verify's: it emits and replays
 * the same trace in each workload's job.
 *
 * Exit codes: 0 pass, 1 unreadable/corrupt trace, 2 usage errors.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "branch/predictor_client.hh"
#include "check/digest.hh"
#include "sim/experiments.hh"
#include "sim/job_pool.hh"
#include "sim/result_json.hh"
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

    // --emit
    std::string workload;
    std::string out;
    std::uint64_t insts = 20'000;
    std::uint64_t warmup = 5'000;
    std::uint64_t seed = 1;

    // --bench
    std::vector<std::string> traces;
    std::vector<std::string> predictors;  ///< empty = all registered
    unsigned jobs = 0;

    bool json = false;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: specslice_replay --emit --workload NAME --out FILE "
        "[options]\n"
        "       specslice_replay --bench --traces F1,F2,... [options]\n"
        "  --emit            run NAME functionally and write an sstr\n"
        "                    reference trace (a header naming the\n"
        "                    workload, then one record per retired\n"
        "                    instruction)\n"
        "  --workload NAME   workload to trace (emit mode)\n"
        "  --out FILE        trace file to write (emit mode)\n"
        "  --insts N         measured instructions (emit; %llu)\n"
        "  --warmup N        warm-up instructions (emit; %llu); the\n"
        "                    trace records warmup+insts instructions\n"
        "                    and the workload is built at the golden\n"
        "                    corpus scale, so the header names the\n"
        "                    workload specslice_verify runs\n"
        "  --seed N          workload data seed (emit; 1)\n"
        "  --bench           replay every trace in --traces through\n"
        "                    every client and write BENCH_replay.json\n"
        "  --traces F1,F2    trace files for --bench\n"
        "  --predictor A,B   restrict to these clients (default all)\n"
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
        } else if (a == "--predictor") {
            o.predictors = splitCsv(next());
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
    if (o.emit == o.bench)
        usage(2);
    if (o.emit && (o.workload.empty() || o.out.empty()))
        usage(2);
    if (o.bench && o.traces.empty())
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

    // Mirror the golden corpus's workload construction exactly, so
    // the header's scale and seed name the workload specslice_verify
    // runs.
    sim::RunOptions opts;
    opts.maxMainInstructions = o.insts;
    opts.warmupInstructions = o.warmup;
    const sim::Workload wl =
        sim::buildBenchWorkload(o.workload, o.seed, opts);

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

void
printReplayTable(const trace::TraceMeta &meta,
                 const trace::ReplayRows &rows)
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

/** The per-trace replay document (a BENCH_replay.json row). */
json::JsonObject
replayDocument(const std::string &path, const trace::TraceMeta &meta,
               const trace::ReplayRows &rows)
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
runBench(const Options &o)
{
    const std::vector<std::string> clients = clientNames(o);
    struct Row
    {
        std::string path;
        trace::TraceMeta meta;
        trace::ReplayRows rows;
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
            if (auto rows = trace::replayClients(*file, clients, err))
                row.rows = std::move(*rows);
            else
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
    return o.emit ? runEmit(o) : runBench(o);
}
