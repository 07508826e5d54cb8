/**
 * @file
 * The repository benchmark. It drives the simulator's public layers
 * from outside, one call at a time on one thread, and times every call,
 * so a change can be measured end to end and layer by layer without the
 * simulator knowing it is being measured.
 *
 *   perfbench --workload stall-bound|issue-bound|sampled-replay
 *             --seed N --seconds S --trace 0|1
 *             [--smoke] [--golden DIR] [--scratch DIR]
 *
 * One run checks one golden-length run per kernel against the
 * committed digests, then repeats the workload in rounds until S
 * seconds have passed, setting up afresh before each round. Every
 * round does identical work, so each metric is the median over rounds
 * (setup_s the median over set-ups).
 * With --trace 1, rounds that record spans alternate with untraced
 * rounds; per-layer metrics come from the traced ones and the tracing
 * overhead is the difference of the two medians. The last line of
 * stdout is one JSON object; README.md beside this file defines every
 * metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "arch/checkpoint.hh"
#include "arch/fastfwd.hh"
#include "branch/predictor_client.hh"
#include "check/digest.hh"
#include "common/failure.hh"
#include "common/jsonio.hh"
#include "mem/hierarchy.hh"
#include "sim/result_json.hh"
#include "sim/simulator.hh"
#include "trace/frontend.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"

using namespace specslice;
namespace fs = std::filesystem;

namespace
{

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

/** Run lengths of one workload, in instructions (or trace records). */
struct Lengths
{
    std::uint64_t warmup = 0;   ///< per detailed run / sampled region
    std::uint64_t measure = 0;  ///< per detailed run / sampled region
    std::uint64_t fastForward = 0;
    unsigned regions = 0;
    std::uint64_t stride = 0;
    std::uint64_t traceRecords = 0;

    /** A workload scale that outlasts every run made on it. The
     *  builders size their dynamic instruction count roughly to the
     *  scale, after a fixed set-up phase that the golden corpus's
     *  scale (50k) comfortably covers. */
    std::uint64_t
    scale() const
    {
        const std::uint64_t span =
            fastForward + (regions ? regions - 1 : 0) * stride + warmup +
            measure;
        return std::max<std::uint64_t>(2 * std::max(span, traceRecords),
                                       50'000);
    }
};

struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> kernels;
    bool sampled = false;
    Lengths full;
    Lengths smoke;
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    // Kernels split by host regime: sliced IPC 0.10-0.32 (most
    // simulated cycles idle) versus 0.55-3.4 (every cycle does work).
    // Lengths put one round at 1-3 host seconds on a 4-vCPU x86 VM;
    // issue-bound simulates about three times as many instructions per
    // host second, so its windows are longer.
    static const std::vector<WorkloadSpec> specs = {
        {"stall-bound",
         {"mcf", "gap", "gcc", "perl"},
         false,
         {10'000, 20'000, 0, 0, 0, 0},
         {1'000, 2'000, 0, 0, 0, 0}},
        {"issue-bound",
         {"bzip2", "crafty", "eon", "gzip", "parser", "twolf", "vortex",
          "vpr"},
         false,
         {25'000, 50'000, 0, 0, 0, 0},
         {1'000, 2'000, 0, 0, 0, 0}},
        {"sampled-replay",
         workloads::allWorkloadNames(),
         true,
         {4'000, 8'000, 1'000'000, 2, 100'000, 500'000},
         {500, 1'000, 10'000, 2, 5'000, 10'000}},
    };
    return specs;
}

// ---------------------------------------------------------------
// Spans and checked operations
// ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/** One timed call into a layer. */
struct Span
{
    const char *layer;
    const char *name;
    std::string kernel;
    double start = 0.0;  ///< seconds since the recorder was created
    double end = 0.0;
    int parent = -1;     ///< index of the enclosing span, -1 at top
};

/**
 * Times calls into the simulator's layers. Every call is timed; spans
 * are kept in memory, to be written at exit, only while recording.
 */
class Recorder
{
  public:
    /** Run fn and return the host seconds it took. */
    template <class F>
    double
    time(const char *layer, const char *name, const std::string &kernel,
         F &&fn)
    {
        const double t0 = now();
        int idx = -1;
        if (recording_) {
            idx = static_cast<int>(spans_.size());
            spans_.push_back({layer, name, kernel, t0, t0,
                              stack_.empty() ? -1 : stack_.back()});
            stack_.push_back(idx);
        }
        try {
            fn();
        } catch (...) {
            close(idx);
            throw;
        }
        return close(idx) - t0;
    }

    void setRecording(bool on) { recording_ = on; }
    std::size_t size() const { return spans_.size(); }

    /** Self time per layer over spans [first, size()): each span's
     *  duration minus the part its direct children cover. */
    std::map<std::string, double>
    selfTimes(std::size_t first) const
    {
        std::vector<double> children(spans_.size(), 0.0);
        for (std::size_t i = first; i < spans_.size(); ++i)
            if (spans_[i].parent >= 0)
                children[spans_[i].parent] +=
                    spans_[i].end - spans_[i].start;
        std::map<std::string, double> self;
        for (std::size_t i = first; i < spans_.size(); ++i)
            self[spans_[i].layer] +=
                spans_[i].end - spans_[i].start - children[i];
        return self;
    }

    /** Write every span as a Chrome trace (open in Perfetto). */
    bool
    write(const fs::path &path) const
    {
        std::vector<std::string> events;
        events.reserve(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            json::JsonObject args;
            args.field("id", static_cast<std::uint64_t>(i))
                .raw("parent", std::to_string(s.parent))
                .field("kernel", s.kernel);
            json::JsonObject ev;
            ev.field("name", std::string(s.name))
                .field("cat", std::string(s.layer))
                .field("ph", std::string("X"))
                .raw("ts", number(s.start * 1e6))
                .raw("dur", number((s.end - s.start) * 1e6))
                .raw("pid", "1")
                .raw("tid", "1")
                .raw("args", args.str());
            events.push_back(ev.str());
        }
        std::ofstream os(path);
        os << "{\"traceEvents\": " << json::jsonArray(events) << "}\n";
        return static_cast<bool>(os);
    }

    /** A double with every significant digit. */
    static std::string
    number(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_)
            .count();
    }

    double
    close(int idx)
    {
        const double t = now();
        if (idx >= 0) {
            spans_[idx].end = t;
            stack_.pop_back();
        }
        return t;
    }

    Clock::time_point epoch_ = Clock::now();
    bool recording_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Counts checked operations and the ones that failed. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    bool
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
        }
        return ok;
    }
};

// ---------------------------------------------------------------
// Per-round accounting
// ---------------------------------------------------------------

/** What a Simulator::run was for. FromEntry is sampled-replay's
 *  baseline run from the program entry (fast-forward + checkpoint
 *  save); Base is then the same run restored from the checkpoint. */
enum Kind
{
    Base,
    Sliced,
    Limit,
    Profile,
    FromEntry,
    numKinds
};

constexpr const char *kindNames[numKinds] = {"base", "sliced", "limit",
                                             "profile", "from-entry"};

/** Counters and host time summed over the runs of one kind. */
struct Tally
{
    double hostS = 0.0;  ///< Simulator::run calls, timed from outside
    double warmupS = 0.0;   ///< RunResult::wallWarmupSeconds
    double measureS = 0.0;  ///< RunResult::wallMeasureSeconds
    double ffS = 0.0;       ///< RunResult::wallFastForwardSeconds
    std::map<std::string, std::uint64_t> n;

    void
    add(const sim::RunResult &r, double host_s, std::uint64_t warmup)
    {
        hostS += host_s;
        warmupS += r.wallWarmupSeconds;
        measureS += r.wallMeasureSeconds;
        ffS += r.wallFastForwardSeconds;
        const std::uint64_t regions = std::max(1u, r.sampledRegions);
        n["detailed_insts"] += warmup * regions + r.mainRetired;
        n["regions"] += r.sampledRegions;
        n["cycles"] += r.cycles;
        n["total_cycles"] += r.totalCycles;
        n["retired"] += r.mainRetired;
        n["fetched"] += r.mainFetched;
        n["wrong_path"] += r.mainFetchedWrongPath;
        n["slice_retired"] += r.sliceRetired;
        n["forks"] += r.forks;
        n["forks_squashed"] += r.forksSquashed;
        n["forks_ignored"] += r.forksIgnored;
        n["predictions"] += r.predictionsGenerated;
        n["used"] += r.correlatorUsed;
        n["wrong"] += r.correlatorWrong;
        n["late"] += r.latePredictions;
        n["slice_prefetches"] += r.slicePrefetches;
        n["covered"] += r.coveredMisses;
        n["mispredictions"] += r.mispredictions;
        n["l1d_misses"] += r.detail.get("l1d_misses");
        n["delayed_hits"] += r.detail.get("delayed_hits");
        n["hw_prefetches"] += r.detail.get("hw_prefetches");
    }

    double
    get(const char *key) const
    {
        auto it = n.find(key);
        return it == n.end() ? 0.0 : static_cast<double>(it->second);
    }

    Tally &
    operator+=(const Tally &o)
    {
        hostS += o.hostS;
        warmupS += o.warmupS;
        measureS += o.measureS;
        ffS += o.ffS;
        for (const auto &[k, v] : o.n)
            n[k] += v;
        return *this;
    }
};

/** One predictor client's replay work. */
struct Replay
{
    double s = 0.0;
    std::uint64_t records = 0;
    std::uint64_t cond = 0;
    std::uint64_t condMiss = 0;
};

/** Everything one round measured. Counts repeat exactly from round to
 *  round; times do not. */
struct Round
{
    double wall = 0.0;
    std::array<Tally, numKinds> runs;

    double archFfS = 0.0;
    std::uint64_t ffInsts = 0;
    double ckptSaveS = 0.0;
    double ckptLoadS = 0.0;
    std::uint64_t ckptBytes = 0;
    double warmS = 0.0;
    std::uint64_t warmAccesses = 0;
    double emitS = 0.0;
    double readS = 0.0;
    std::uint64_t records = 0;
    std::uint64_t traceBytes = 0;
    std::map<std::string, Replay> replay;

    /** Layer self times (traced rounds only). */
    std::map<std::string, double> self;
    std::uint64_t spans = 0;

    Tally
    total() const
    {
        Tally t;
        for (const Tally &k : runs)
            t += k;
        return t;
    }

    /** Every count this round produced, for the determinism check. */
    std::map<std::string, std::uint64_t>
    counts() const
    {
        std::map<std::string, std::uint64_t> c;
        for (int k = 0; k < numKinds; ++k)
            for (const auto &[name, v] : runs[k].n)
                c[std::string(kindNames[k]) + "." + name] = v;
        c["ff_insts"] = ffInsts;
        c["ckpt_bytes"] = ckptBytes;
        c["warm_accesses"] = warmAccesses;
        c["records"] = records;
        c["trace_bytes"] = traceBytes;
        for (const auto &[name, r] : replay) {
            c["replay." + name + ".records"] = r.records;
            c["replay." + name + ".cond"] = r.cond;
            c["replay." + name + ".cond_miss"] = r.condMiss;
        }
        return c;
    }
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Percent by which a exceeds b (0 when b is 0). */
double
pctOver(double a, double b)
{
    return b != 0.0 ? 100.0 * (a / b - 1.0) : 0.0;
}

// ---------------------------------------------------------------
// The work
// ---------------------------------------------------------------

struct Kernel
{
    std::string name;
    sim::Workload wl;
};

/** What one kernel's share of a round needs. */
struct Ctx
{
    Recorder &rec;
    Ledger &ledger;
    Round &round;
    const Lengths &len;
    const fs::path &tmp;
    std::uint64_t seed;
};

/** Limit study: perfect exactly the problem PCs the slices cover. */
sim::RunOptions
withLimit(sim::RunOptions o, const sim::Workload &wl)
{
    for (Addr pc : wl.coveredBranchPcs())
        o.perfect.branchPcs.insert(pc);
    for (Addr pc : wl.coveredLoadPcs())
        o.perfect.loadPcs.insert(pc);
    return o;
}

/**
 * One timed Simulator::run, checked and tallied under kind. A run must
 * complete every region it was asked for and retire the requested
 * count. The core retires up to retireWidth instructions a cycle and
 * checks its budget, and its warm-up boundary, once per cycle, so a
 * region's measured count may sit a few instructions either side.
 */
sim::RunResult
simulate(const Kernel &k, sim::Simulator &simr, const sim::RunOptions &opts,
         bool slices, Kind kind, Ctx &c)
{
    const bool sampled = sim::Simulator::sampled(opts);
    sim::RunResult r;
    const double s =
        c.rec.time(sampled ? "sim" : "core", "sim::Simulator::run",
                   k.name, [&] { r = simr.run(k.wl, opts, slices); });

    const unsigned regions = sampled ? std::max(1u, opts.sampleRegions)
                                     : 1u;
    const std::uint64_t want = regions * opts.maxMainInstructions;
    const std::uint64_t slack =
        regions * simr.config().retireWidth;
    const bool retired_ok =
        r.mainRetired + slack > want && r.mainRetired < want + slack;
    c.ledger.check(
        r.outcome == sim::SimOutcome::Completed && retired_ok &&
            (!sampled || r.sampledRegions == regions),
        k.name + " " + kindNames[kind] + " run: " +
            sim::outcomeName(r.outcome) + ", retired " +
            std::to_string(r.mainRetired) + " of " +
            std::to_string(want) + ", regions " +
            std::to_string(r.sampledRegions));
    c.round.runs[kind].add(r, s, opts.warmupInstructions);
    return r;
}

/** stall-bound / issue-bound: Figure 11's triple plus Table 2's
 *  profiling baseline. */
void
runDetailed(const Kernel &k, Ctx &c)
{
    sim::Simulator simr(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.maxMainInstructions = c.len.measure;
    opts.warmupInstructions = c.len.warmup;
    sim::RunOptions profile = opts;
    profile.profile = true;

    simulate(k, simr, opts, false, Base, c);
    simulate(k, simr, opts, true, Sliced, c);
    simulate(k, simr, withLimit(opts, k.wl), false, Limit, c);
    simulate(k, simr, profile, false, Profile, c);
}

std::optional<std::string>
readFile(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

bool
sameBytes(const fs::path &a, const fs::path &b)
{
    const auto fa = readFile(a);
    return fa && fa == readFile(b);
}

/** sampled-replay: fast-forward and a checkpoint round trip, cache
 *  warm replay, the sampled Figure 11 triple, then a trace written,
 *  read back and replayed through every predictor client. */
void
runSampled(const Kernel &k, Ctx &c)
{
    const Lengths &len = c.len;
    const fs::path ckpt = c.tmp / (k.name + ".ckpt");
    const fs::path sim_ckpt = c.tmp / (k.name + "-sim.ckpt");
    const fs::path trace_path = c.tmp / (k.name + ".sstr");
    std::string err;

    // arch: fast-forward, then save and reload the checkpoint.
    arch::FastForward ff(k.wl.program);
    ff.reset(k.wl.entry);
    if (k.wl.initMemory)
        k.wl.initMemory(ff.mem());
    arch::FfStop stop = arch::FfStop::Budget;
    c.round.archFfS +=
        c.rec.time("arch", "arch::FastForward::advance", k.name,
                   [&] { stop = ff.advance(len.fastForward); });
    c.round.ffInsts += ff.executed();
    c.ledger.check(stop == arch::FfStop::Budget &&
                       ff.executed() == len.fastForward,
                   k.name + " fast-forward stopped at " +
                       std::to_string(ff.executed()) + " (" +
                       arch::ffStopName(stop) + ")");

    const arch::Checkpoint saved = ff.makeCheckpoint();
    bool saved_ok = false;
    c.round.ckptSaveS +=
        c.rec.time("arch", "arch::saveCheckpointFile", k.name, [&] {
            saved_ok =
                arch::saveCheckpointFile(saved, ckpt.string(), err);
        });
    if (!c.ledger.check(saved_ok, k.name + " checkpoint save: " + err))
        return;
    c.round.ckptBytes += fs::file_size(ckpt);
    std::optional<arch::Checkpoint> loaded;
    c.round.ckptLoadS +=
        c.rec.time("arch", "arch::loadCheckpointFile", k.name, [&] {
            loaded = arch::loadCheckpointFile(ckpt.string(), err);
        });
    c.ledger.check(loaded && loaded->instCount == saved.instCount &&
                       loaded->pc == saved.pc &&
                       loaded->programFingerprint ==
                           saved.programFingerprint &&
                       loaded->memWarmth.size() == saved.memWarmth.size(),
                   k.name + " checkpoint reload: " + err);

    // mem: replay the fast-forward's data-access log into cold caches.
    mem::MemoryHierarchy hierarchy(sim::MachineConfig::fourWide().memory);
    const std::vector<arch::MemWarmthRecord> log = ff.memWarmth();
    c.round.warmS +=
        c.rec.time("mem", "mem::MemoryHierarchy::warmData", k.name, [&] {
            for (const arch::MemWarmthRecord &m : log)
                hierarchy.warmData(m.addr, m.isStore);
        });
    c.round.warmAccesses += log.size();

    // sim: the baseline from the entry saves a checkpoint, which must
    // match the one above byte for byte; the same baseline restored
    // from it must reproduce every counter.
    sim::Simulator simr(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.maxMainInstructions = len.measure;
    opts.warmupInstructions = len.warmup;
    opts.fastForwardInstructions = len.fastForward;
    opts.sampleRegions = len.regions;
    opts.sampleStride = len.stride;
    sim::RunOptions from_entry = opts;
    from_entry.saveCheckpoint = sim_ckpt.string();
    sim::RunOptions restored = opts;
    restored.restoreCheckpoint = ckpt.string();

    const sim::RunResult first =
        simulate(k, simr, from_entry, false, FromEntry, c);
    c.ledger.check(sameBytes(sim_ckpt, ckpt),
                   k.name + " Simulator and FastForward checkpoints "
                            "differ");
    const sim::RunResult again =
        simulate(k, simr, restored, false, Base, c);
    c.ledger.check(sim::digestSection("", first).counters ==
                       sim::digestSection("", again).counters,
                   k.name + " run restored from the checkpoint differs "
                            "from the run that saved it");
    simulate(k, simr, restored, true, Sliced, c);
    simulate(k, simr, withLimit(restored, k.wl), false, Limit, c);

    // trace: write, read back with no client, replay per client.
    std::optional<trace::EmitResult> emitted;
    c.round.emitS +=
        c.rec.time("trace", "trace::emitWorkloadTrace", k.name, [&] {
            emitted = trace::emitWorkloadTrace(
                k.wl, c.seed, len.traceRecords, trace_path.string(), err);
        });
    const std::uint64_t n = emitted ? emitted->records : 0;
    if (!c.ledger.check(emitted && n == len.traceRecords,
                        k.name + " emitted " + std::to_string(n) +
                            " of " + std::to_string(len.traceRecords) +
                            " records " + err))
        return;
    c.round.records += n;
    c.round.traceBytes += fs::file_size(trace_path);
    {
        auto file = trace::TraceFile::open(trace_path.string(), err);
        if (!c.ledger.check(file.has_value(),
                            k.name + " trace reopen: " + err))
            return;
        trace::TraceReader reader = file->records();
        trace::TraceRecord record;
        std::uint64_t read_back = 0;
        c.round.readS +=
            c.rec.time("trace", "trace::TraceReader::next", k.name, [&] {
                while (reader.next(record))
                    ++read_back;
            });
        c.ledger.check(reader.ok() && read_back == n,
                       k.name + " read back " + std::to_string(read_back) +
                           " of " + std::to_string(n) + " records " +
                           reader.error());
        for (const std::string &name : branch::predictorClientNames()) {
            auto client = branch::makePredictorClient(name);
            trace::TraceReader rd = file->records();
            trace::ReplayStats st;
            const double s =
                c.rec.time("branch", "trace::replayRecords", k.name,
                           [&] { st = trace::replayRecords(rd, *client); });
            c.ledger.check(rd.ok() && st.records == n,
                           k.name + " " + name + " replayed " +
                               std::to_string(st.records) + " of " +
                               std::to_string(n) + " records " +
                               rd.error());
            Replay &rp = c.round.replay[name];
            rp.s += s;
            rp.records += st.records;
            rp.cond += st.condBranches;
            rp.condMiss += st.condMispredicts;
        }
    }
    fs::remove(trace_path);
    fs::remove(ckpt);
    fs::remove(sim_ckpt);
}

/** A fresh directory for this run's files, removed with everything in
 *  it when the run ends. */
class TempDir
{
  public:
    explicit TempDir(const fs::path &under)
    {
        fs::create_directories(under);
        std::string pattern = (under / "tmp.XXXXXX").string();
        if (!mkdtemp(pattern.data()))
            throw std::runtime_error("cannot create a directory under " +
                                     under.string());
        path_ = pattern;
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

/** A temp directory and the kernels built for one run of rounds. */
struct SetUp
{
    std::unique_ptr<TempDir> tmp;
    std::vector<Kernel> kernels;
    double seconds = 0.0;       ///< the whole set-up
    double buildSeconds = 0.0;  ///< workloads::buildWorkload calls
};

/** Create the temp directory, build every kernel from the seed and
 *  initialise its memory image once. */
SetUp
setUp(const WorkloadSpec &spec, const workloads::Params &params,
      const fs::path &scratch, Recorder &rec)
{
    const auto t0 = Clock::now();
    SetUp su;
    su.tmp = std::make_unique<TempDir>(scratch);
    for (const std::string &name : spec.kernels) {
        Kernel k{name, {}};
        su.buildSeconds +=
            rec.time("workloads", "workloads::buildWorkload", name,
                     [&] { k.wl = workloads::buildWorkload(name, params); });
        arch::MemoryImage image;
        if (k.wl.initMemory)
            k.wl.initMemory(image);
        su.kernels.push_back(std::move(k));
    }
    su.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return su;
}

// ---------------------------------------------------------------
// Golden check
// ---------------------------------------------------------------

void
diffAgainst(const fs::path &golden_path, const check::Digest &live,
            Ledger &ledger)
{
    std::ifstream is(golden_path);
    std::string err;
    std::optional<check::Digest> golden;
    if (is)
        golden = check::parseDigest(is, err);
    else
        err = "cannot open";
    std::vector<std::string> diffs;
    if (golden)
        diffs = check::diffDigests(*golden, live);
    ledger.check(golden && diffs.empty(),
                 "golden " + golden_path.string() + ": " +
                     (!golden ? err
                              : diffs.empty() ? "" : diffs.front()));
}

/**
 * Reproduce the committed corpus for one kernel: the execution digest
 * (baseline and slices) and the replay digest of its trace, with the
 * corpus's own run parameters.
 */
void
checkGolden(const std::string &kernel, const fs::path &golden_dir,
            const fs::path &tmp, Ledger &ledger)
{
    constexpr std::uint64_t insts = 20'000;
    constexpr std::uint64_t warmup = 5'000;
    constexpr std::uint64_t seed = 1;
    workloads::Params p;
    p.scale = (insts + warmup) * 2;
    p.seed = seed;
    const sim::Workload wl = workloads::buildWorkload(kernel, p);

    const sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    sim::Simulator simr(cfg);
    sim::RunOptions opts;
    opts.maxMainInstructions = insts;
    opts.warmupInstructions = warmup;

    check::Digest live;
    live.workload = kernel;
    live.insts = insts;
    live.warmup = warmup;
    live.seed = seed;
    live.width = cfg.fetchWidth;
    live.threads = cfg.numThreads;
    live.sections.push_back(
        sim::digestSection("baseline", simr.runBaseline(wl, opts)));
    live.sections.push_back(
        sim::digestSection("slices", simr.run(wl, opts, true)));
    diffAgainst(golden_dir / (kernel + ".digest"), live, ledger);

    const fs::path path = tmp / (kernel + "-golden.sstr");
    std::string err;
    auto emitted = trace::emitWorkloadTrace(wl, seed, insts + warmup,
                                            path.string(), err);
    std::optional<trace::TraceFile> file;
    if (emitted)
        file = trace::TraceFile::open(path.string(), err);
    if (!ledger.check(file.has_value(),
                      kernel + " golden trace: " + err))
        return;
    std::vector<std::pair<std::string, trace::ReplayStats>> rows;
    for (const std::string &name : branch::predictorClientNames()) {
        auto client = branch::makePredictorClient(name);
        trace::TraceReader rd = file->records();
        rows.emplace_back(name, trace::replayRecords(rd, *client));
    }
    diffAgainst(golden_dir / (kernel + ".rdigest"),
                trace::replayDigest(file->meta(), rows), ledger);
    file.reset();
    fs::remove(path);
}

// ---------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/** The end-to-end metrics one round yields (setup_s and peak_rss_mb
 *  are per process and added by the caller). */
std::vector<Metric>
endToEnd(const Round &r)
{
    const Tally t = r.total();
    const double detailed_s = t.warmupS + t.measureS;
    const Tally &base = r.runs[Base];
    return {
        {"wall_s", "s", r.wall},
        {"detailed_minsts_per_s", "Minst/s",
         ratio(t.get("detailed_insts"), detailed_s) / 1e6},
        {"host_ns_per_cycle", "ns",
         ratio(detailed_s * 1e9, t.get("total_cycles"))},
        {"slice_speedup_pct", "%",
         pctOver(base.get("cycles"), r.runs[Sliced].get("cycles"))},
        {"limit_speedup_pct", "%",
         pctOver(base.get("cycles"), r.runs[Limit].get("cycles"))},
    };
}

const std::vector<std::string> selfLayers = {"bench", "core", "sim",
                                             "arch", "mem", "trace",
                                             "branch"};

/** The per-layer metrics one round yields (workloads.build_s and the
 *  tracing overhead are per process and added by the caller). */
std::vector<Metric>
perLayer(const Round &r)
{
    const Tally t = r.total();
    const Tally &base = r.runs[Base];
    const Tally &sliced = r.runs[Sliced];
    std::vector<Metric> m = {
        {"core.base_s", "s", base.hostS},
        {"core.sliced_s", "s", sliced.hostS},
        {"core.limit_s", "s", r.runs[Limit].hostS},
        {"core.profile_s", "s", r.runs[Profile].hostS},
        {"core.warmup_s", "s", t.warmupS},
        {"core.measure_s", "s", t.measureS},
        {"core.sim_cycles", "count", t.get("total_cycles")},
        {"core.fetched", "count", t.get("fetched")},
        {"core.wrong_path_fetched", "count", t.get("wrong_path")},
        {"core.useful_fetch_ratio", "ratio",
         ratio(t.get("retired"), t.get("fetched"))},
        {"core.ipc_base", "inst/cycle",
         ratio(base.get("retired"), base.get("cycles"))},
        {"core.ipc_sliced", "inst/cycle",
         ratio(sliced.get("retired"), sliced.get("cycles"))},

        {"slice.forks", "count", sliced.get("forks")},
        {"slice.forks_squashed", "count", sliced.get("forks_squashed")},
        {"slice.forks_ignored", "count", sliced.get("forks_ignored")},
        {"slice.insts", "count", sliced.get("slice_retired")},
        {"slice.insts_per_prediction", "ratio",
         ratio(sliced.get("slice_retired"), sliced.get("predictions"))},
        {"slice.pred_used_ratio", "ratio",
         ratio(sliced.get("used"), sliced.get("predictions"))},
        {"slice.pred_wrong", "count", sliced.get("wrong")},
        {"slice.late_ratio", "ratio",
         ratio(sliced.get("late"), sliced.get("late") + sliced.get("used"))},
        {"slice.prefetch_cover_ratio", "ratio",
         ratio(sliced.get("covered"), sliced.get("slice_prefetches"))},
        {"slice.host_overhead_pct", "%", pctOver(sliced.hostS, base.hostS)},

        {"mem.l1d_misses", "count", t.get("l1d_misses")},
        {"mem.covered_misses", "count", t.get("covered")},
        {"mem.delayed_hits", "count", t.get("delayed_hits")},
        {"mem.hw_prefetches", "count", t.get("hw_prefetches")},
        {"mem.warm_ns_per_access", "ns",
         ratio(r.warmS * 1e9, static_cast<double>(r.warmAccesses))},

        {"branch.mispredictions_base", "count", base.get("mispredictions")},
        {"branch.mispredictions_sliced", "count",
         sliced.get("mispredictions")},
    };

    double replay_s = 0.0;
    std::uint64_t replay_records = 0;
    for (const std::string &name : branch::predictorClientNames()) {
        auto it = r.replay.find(name);
        const Replay rp = it == r.replay.end() ? Replay{} : it->second;
        replay_s += rp.s;
        replay_records += rp.records;
        m.push_back({"branch.replay_ns_per_record." + name, "ns",
                     ratio(rp.s * 1e9, static_cast<double>(rp.records))});
        m.push_back({"branch.replay_cond_accuracy." + name, "ratio",
                     rp.cond ? 1.0 - ratio(static_cast<double>(rp.condMiss),
                                           static_cast<double>(rp.cond))
                             : 0.0});
    }
    const double records = static_cast<double>(r.records);
    std::vector<Metric> rest = {
        {"branch.replay_mrecords_per_s", "Mrec/s",
         ratio(static_cast<double>(replay_records), replay_s) / 1e6},

        {"profile.overhead_pct", "%",
         r.runs[Profile].hostS > 0.0
             ? pctOver(r.runs[Profile].hostS, base.hostS)
             : 0.0},

        {"arch.ff_s", "s", r.archFfS},
        {"arch.ff_minsts_per_s", "Minst/s",
         ratio(static_cast<double>(r.ffInsts), r.archFfS) / 1e6},
        {"arch.checkpoint_save_ms", "ms", r.ckptSaveS * 1e3},
        {"arch.checkpoint_load_ms", "ms", r.ckptLoadS * 1e3},
        {"arch.checkpoint_bytes", "bytes",
         static_cast<double>(r.ckptBytes)},

        {"trace.emit_mrecords_per_s", "Mrec/s",
         ratio(records, r.emitS) / 1e6},
        {"trace.read_mrecords_per_s", "Mrec/s",
         ratio(records, r.readS) / 1e6},
        {"trace.bytes_per_record", "bytes",
         ratio(static_cast<double>(r.traceBytes), records)},

        {"sim.ff_s", "s", t.ffS},
        {"sim.region_warmup_s", "s",
         t.get("regions") ? t.warmupS : 0.0},
        {"sim.region_measure_s", "s",
         t.get("regions") ? t.measureS : 0.0},
        {"sim.regions", "count", t.get("regions")},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const std::string &layer : selfLayers) {
        auto it = r.self.find(layer);
        m.push_back({layer + ".self_s", "s",
                     it == r.self.end() ? 0.0 : it->second});
    }
    m.push_back({"tracing.spans", "count", static_cast<double>(r.spans)});
    return m;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/** Per-metric medians over rounds (every round yields the same list). */
std::vector<Metric>
medians(const std::vector<Round> &rounds,
        std::vector<Metric> (*metrics)(const Round &))
{
    std::vector<std::vector<Metric>> all;
    for (const Round &r : rounds)
        all.push_back(metrics(r));
    std::vector<Metric> out = all.front();
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> v;
        for (const auto &row : all)
            v.push_back(row[i].value);
        out[i].value = median(v);
    }
    return out;
}

std::vector<double>
walls(const std::vector<Round> &rounds)
{
    std::vector<double> v;
    for (const Round &r : rounds)
        v.push_back(r.wall);
    return v;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------
// Command line
// ---------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 0;
    bool trace = false;
    bool smoke = false;
    fs::path golden = "golden";
    fs::path scratch = ".bench_build";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload stall-bound|issue-bound|"
                 "sampled-replay --seed N --seconds S --trace 0|1\n"
                 "                 [--smoke] [--golden DIR] "
                 "[--scratch DIR]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const char *v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (*v == '\0' || *v == '-' || *end != '\0' || errno == ERANGE)
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const char *v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = parseCount(flag, v);
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = parseCount(flag, v);
            have_seconds = true;
        } else if (flag == "--trace") {
            const std::uint64_t t = parseCount(flag, v);
            if (t > 1)
                usage("--trace takes 0 or 1");
            a.trace = t == 1;
            have_trace = true;
        } else if (flag == "--golden") {
            a.golden = v;
        } else if (flag == "--scratch") {
            a.scratch = v;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (a.workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (a.seconds == 0 || a.seconds > 600)
        usage("--seconds must be in [1, 600]");
    return a;
}

void
printMetrics(const std::vector<Metric> &metrics, const Ledger &ledger)
{
    json::JsonObject m;
    for (const Metric &x : metrics) {
        std::fprintf(stderr, "  %-36s %14.6g %s\n", x.name.c_str(),
                     x.value, x.unit.c_str());
        json::JsonObject v;
        v.raw("value", Recorder::number(x.value)).field("unit", x.unit);
        m.raw(x.name, v.str());
    }
    json::JsonObject doc;
    doc.raw("correct", ledger.failed == 0 ? "true" : "false")
        .field("attempted", ledger.attempted)
        .field("failed", ledger.failed)
        .raw("metrics", m.str());
    std::printf("%s\n", doc.str().c_str());
}

int
run(const Args &a)
{
    const auto &specs = workloadSpecs();
    auto spec_it = std::find_if(specs.begin(), specs.end(),
                                [&](const WorkloadSpec &s) {
                                    return s.name == a.workload;
                                });
    if (spec_it == specs.end())
        usage("unknown workload '" + a.workload + "'");
    const WorkloadSpec &spec = *spec_it;
    const Lengths &len = a.smoke ? spec.smoke : spec.full;

    ScopedThrowErrors throw_errors;
    Recorder rec;
    Ledger ledger;

    // Set-up takes tens of milliseconds and host noise moves one
    // repetition by up to half, so it is repeated before every round
    // and reported as the median of all repetitions in the run.
    const int setup_reps = a.smoke ? 1 : 3;
    std::vector<double> setup_s, build_s;
    workloads::Params params;
    params.scale = len.scale();
    params.seed = a.seed;
    auto set_up = [&] {
        SetUp su = setUp(spec, params, a.scratch, rec);
        setup_s.push_back(su.seconds);
        build_s.push_back(su.buildSeconds);
        return su;
    };

    SetUp current = set_up();
    for (const std::string &name : spec.kernels) {
        try {
            checkGolden(name, a.golden, current.tmp->path(), ledger);
        } catch (const std::exception &e) {
            ledger.check(false, name + " golden check: " + e.what());
        }
    }

    // Rounds until the time is up. Traced runs alternate untraced and
    // traced rounds so both see the same host conditions.
    const std::size_t min_rounds = a.smoke ? 1 : 3;
    std::vector<Round> plain, traced;
    std::map<std::string, std::uint64_t> first_counts;
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        for (int rep = 0; rep < setup_reps; ++rep)
            current = set_up();
        const bool tracing = a.trace && i % 2 == 1;
        Round round;
        Ctx ctx{rec, ledger, round, len, current.tmp->path(), a.seed};
        rec.setRecording(tracing);
        const std::size_t first_span = rec.size();
        round.wall = rec.time("bench", "round", "", [&] {
            for (const Kernel &k : current.kernels) {
                rec.time("bench", "kernel", k.name, [&] {
                    try {
                        if (spec.sampled)
                            runSampled(k, ctx);
                        else
                            runDetailed(k, ctx);
                    } catch (const std::exception &e) {
                        ledger.check(false, k.name + ": " + e.what());
                    }
                });
            }
        });
        rec.setRecording(false);
        if (tracing) {
            round.self = rec.selfTimes(first_span);
            round.spans = rec.size() - first_span;
        }
        std::fprintf(stderr, "perfbench: round %zu%s %.4f s\n", i,
                     tracing ? " (traced)" : "", round.wall);
        if (i == 0)
            first_counts = round.counts();
        else
            ledger.check(round.counts() == first_counts,
                         "round " + std::to_string(i) +
                             " counters differ from round 0");
        const double last_wall = round.wall;
        (tracing ? traced : plain).push_back(std::move(round));

        // Stop once each kind of round ran often enough and another
        // would run past the time given (smoke runs stop right away).
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        const bool enough = plain.size() >= min_rounds &&
                            (!a.trace || traced.size() >= min_rounds);
        if (enough &&
            (a.smoke ||
             elapsed + last_wall > static_cast<double>(a.seconds)))
            break;
    }

    std::vector<Metric> metrics;
    if (!a.trace) {
        metrics = medians(plain, endToEnd);
        metrics.insert(metrics.begin() + 1,
                       {{"setup_s", "s", median(setup_s)},
                        {"peak_rss_mb", "MB", peakRssMb()}});
    } else {
        metrics = medians(traced, perLayer);
        metrics.insert(metrics.begin(),
                       Metric{"workloads.build_s", "s", median(build_s)});
        metrics.push_back({"tracing.overhead_s", "s",
                           median(walls(traced)) - median(walls(plain))});
        const fs::path spans_dir = a.scratch / "spans";
        fs::create_directories(spans_dir);
        const fs::path out = spans_dir / (spec.name + "-seed" +
                                          std::to_string(a.seed) +
                                          ".json");
        if (rec.write(out))
            std::fprintf(stderr, "perfbench: spans written to %s\n",
                         out.string().c_str());
    }
    std::fprintf(stderr, "perfbench: %s seed %llu, %zu rounds%s\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(a.seed),
                 plain.size() + traced.size(),
                 a.trace ? " (half traced)" : "");
    printMetrics(metrics, ledger);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
