/**
 * @file
 * Observability subsystem tests: the correlator slot lifecycle
 * invariant on the structured event stream, event counts reconciling
 * with the counters they mirror, interval time-series accounting
 * (window deltas summing to the final counters, including across
 * StatGroup::reset()), determinism of log/interval output across
 * job-pool worker counts, Chrome-trace emission, and the bounded
 * event ring.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "obs/events.hh"
#include "obs/interval.hh"
#include "sim/experiments.hh"
#include "sim/job_pool.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

workloads::Params
smallParams()
{
    workloads::Params p;
    p.scale = 150'000;
    return p;
}

core::RunOptions
runOpts(std::uint64_t n = 60'000)
{
    core::RunOptions o;
    o.maxMainInstructions = n;
    o.warmupInstructions = 20'000;
    return o;
}

} // namespace

// ---------------------------------------------------------------
// Correlator slot lifecycle on the event stream (vpr)
// ---------------------------------------------------------------

TEST(CorrelatorEvents, EveryBoundSlotHasCreateAndOneTerminal)
{
    auto wl = workloads::buildVpr(smallParams());
    sim::Simulator simr(sim::MachineConfig::fourWide());
    obs::EventBuffer events(1u << 20);

    auto opts = runOpts();
    opts.events = &events;
    auto res = simr.run(wl, opts, true);
    ASSERT_GT(res.forks, 0u) << "no slices forked; nothing to check";
    ASSERT_EQ(events.dropped(), 0u) << "ring too small for this run";

    // Replay the stream per slot token: a slot must be created before
    // it binds, and exactly one terminal (used/killed) must close it.
    std::set<std::uint64_t> created;
    std::set<std::uint64_t> bound;
    std::map<std::uint64_t, int> terminals;
    std::size_t n_bound_events = 0;
    events.forEach([&](const obs::TraceEvent &e) {
        switch (e.kind) {
          case obs::EventKind::CorrPredCreate:
            EXPECT_TRUE(created.insert(e.arg).second)
                << "token " << e.arg << " created twice";
            break;
          case obs::EventKind::CorrPredBound:
            ++n_bound_events;
            EXPECT_TRUE(created.count(e.arg))
                << "token " << e.arg << " bound before create";
            EXPECT_EQ(terminals.count(e.arg), 0u)
                << "token " << e.arg << " bound after its terminal";
            EXPECT_TRUE(bound.insert(e.arg).second)
                << "token " << e.arg << " bound twice";
            break;
          case obs::EventKind::CorrPredUsed:
          case obs::EventKind::CorrPredKilled:
            EXPECT_TRUE(created.count(e.arg))
                << "terminal for unknown token " << e.arg;
            ++terminals[e.arg];
            break;
          default:
            break;
        }
    });

    ASSERT_GT(n_bound_events, 0u) << "vpr run produced no bindings";

    // Exactly one terminal per created slot, of the right kind.
    for (std::uint64_t tok : created) {
        auto it = terminals.find(tok);
        ASSERT_NE(it, terminals.end())
            << "token " << tok << " never closed";
        EXPECT_EQ(it->second, 1)
            << "token " << tok << " closed " << it->second
            << " times";
    }
    for (const auto &[tok, n] : terminals)
        EXPECT_TRUE(created.count(tok));

    // A bound slot must terminate as Used, an unbound one as Killed.
    events.forEach([&](const obs::TraceEvent &e) {
        if (e.kind == obs::EventKind::CorrPredUsed) {
            EXPECT_TRUE(bound.count(e.arg))
                << "unbound token " << e.arg << " closed as used";
        }
        if (e.kind == obs::EventKind::CorrPredKilled) {
            EXPECT_FALSE(bound.count(e.arg))
                << "bound token " << e.arg << " closed as killed";
        }
    });
}

// ---------------------------------------------------------------
// Events that mirror a counter reconcile with it exactly
// ---------------------------------------------------------------

TEST(EventCounters, EveryMirroredKindEqualsItsCounter)
{
    using K = obs::EventKind;
    using Counts =
        std::array<std::uint64_t, static_cast<unsigned>(K::NumKinds)>;
    sim::ExperimentConfig cfg;
    cfg.warmupInsts = 5'000;
    cfg.measureInsts = 20'000;

    struct Case
    {
        std::string workload;
        sim::MachineConfig machine;
        std::uint64_t warmup;
    };
    std::vector<Case> cases;
    for (const std::string &name : workloads::allWorkloadNames())
        cases.push_back({name, sim::MachineConfig::fourWide(),
                         cfg.warmupInsts});
    // In the measured region of the runs above the I-side is warm and
    // the write buffer never fills. A 2-line L1D and a one-entry write
    // buffer with no warm-up make both stall kinds fire.
    sim::MachineConfig wb = sim::MachineConfig::fourWide();
    wb.memory.l1dSize = 2 * 64;
    wb.memory.writeBufEntries = 1;
    cases.push_back({"vpr", wb, 0});

    // Mirrored kinds seen in some case: none may hold vacuously.
    Counts seen{};
    for (const Case &c : cases) {
        SCOPED_TRACE(c.workload + (c.warmup ? "" : " (write buffer)"));
        const sim::Workload wl = sim::buildBenchWorkload(
            c.workload, cfg.seed, cfg.runOptions());
        sim::RunOptions opts = cfg.runOptions();
        opts.warmupInstructions = c.warmup;
        obs::EventBuffer events(1u << 20);
        opts.events = &events;
        const sim::RunResult r =
            sim::Simulator(c.machine).run(wl, opts, true);
        ASSERT_EQ(events.dropped(), 0u) << "ring too small";

        // Counters restart at the warm-up boundary, after that cycle's
        // stages ran: count what was stamped later.
        const Cycle boundary = r.totalCycles - r.cycles;
        Counts n{};
        std::uint64_t main_dmisses = 0, istall_cycles = 0;
        events.forEach([&](const obs::TraceEvent &e) {
            if (e.cycle <= boundary)
                return;
            ++n[static_cast<unsigned>(e.kind)];
            if (e.kind == K::MemDMiss && e.thread == 0)
                ++main_dmisses;
            if (e.kind == K::MemIStall)
                istall_cycles += e.dur;
        });
        auto count = [&](K k) { return n[static_cast<unsigned>(k)]; };
        auto stat = [&](const char *s) { return r.detail.get(s); };

        EXPECT_EQ(count(K::Fetch),
                  stat("main_fetched") + stat("slice_fetched"));
        EXPECT_EQ(count(K::Retire),
                  r.mainRetired + stat("slice_retired"));
        EXPECT_EQ(count(K::Squash), stat("main_squashed_insts") +
                                        stat("slice_squashed_insts"));
        EXPECT_EQ(count(K::SliceFork), r.forks);
        EXPECT_EQ(count(K::SliceEnd), stat("slices_completed"));
        EXPECT_EQ(count(K::CorrEntryCreate),
                  stat("entries_allocated"));
        EXPECT_EQ(count(K::CorrPredCreate),
                  stat("predictions_allocated"));
        EXPECT_EQ(count(K::CorrOverflow),
                  stat("predictions_dropped_full"));
        EXPECT_EQ(count(K::MemDMiss), stat("l1d_misses"));
        EXPECT_EQ(main_dmisses, r.l1dMissesMain);
        EXPECT_EQ(count(K::MemWbFull), stat("retire_wb_stalls"));
        EXPECT_EQ(istall_cycles, stat("icache_stall_cycles"));
        for (unsigned k = 0; k < n.size(); ++k)
            seen[k] += n[k];
    }

    for (K k : {K::Fetch, K::Retire, K::Squash, K::SliceFork,
                K::SliceEnd, K::CorrEntryCreate, K::CorrPredCreate,
                K::CorrOverflow, K::MemDMiss, K::MemIStall,
                K::MemWbFull})
        EXPECT_GT(seen[static_cast<unsigned>(k)], 0u)
            << obs::eventKindName(k) << " never fired";
}

// ---------------------------------------------------------------
// Interval accounting
// ---------------------------------------------------------------

TEST(IntervalStats, SnapshotDeltaAccumulatesAndClampsAcrossReset)
{
    StatGroup g("ivtest");
    auto &a = g.scalar("a");
    auto &b = g.scalar("b");

    StatGroup::Snapshot base = g.snapshot();
    a += 5;
    b += 2;
    auto d1 = g.snapshotDelta(base);
    EXPECT_EQ(d1.at("a"), 5u);
    EXPECT_EQ(d1.at("b"), 2u);

    a += 3;
    auto d2 = g.snapshotDelta(base);
    EXPECT_EQ(d2.at("a"), 3u);
    EXPECT_EQ(d2.at("b"), 0u);

    // Reset between snapshots: the delta clamps to "count from zero"
    // rather than underflowing, so deltas taken after a reset sum to
    // the final (post-reset) counter values.
    g.reset();
    a += 4;
    auto d3 = g.snapshotDelta(base);
    EXPECT_EQ(d3.at("a"), 4u);
    EXPECT_EQ(d3.at("b"), 0u);

    a += 1;
    auto d4 = g.snapshotDelta(base);
    EXPECT_EQ(d4.at("a"), 1u);

    EXPECT_EQ(d3.at("a") + d4.at("a"), a.value());
}

TEST(IntervalStats, WindowDeltasSumToFinalCounters)
{
    auto wl = workloads::buildVpr(smallParams());
    sim::Simulator simr(sim::MachineConfig::fourWide());

    auto opts = runOpts();
    opts.intervalCycles = 1'000;
    auto res = simr.run(wl, opts, true);

    ASSERT_GE(res.intervals.size(), 3u);

    std::uint64_t retired = 0, mispred = 0, branches = 0, forks = 0,
                  used = 0;
    for (std::size_t i = 0; i < res.intervals.size(); ++i) {
        const obs::IntervalRecord &r = res.intervals[i];
        EXPECT_EQ(r.index, i);
        EXPECT_LT(r.startCycle, r.endCycle);
        if (i) {
            EXPECT_EQ(r.startCycle, res.intervals[i - 1].endCycle);
        }
        retired += r.retired;
        mispred += r.mispredictions;
        branches += r.condBranches;
        forks += r.forks;
        used += r.predsUsed;
    }

    // The series covers exactly the measured region: windows tile it
    // and their deltas sum to the headline result counters.
    EXPECT_EQ(retired, res.mainRetired);
    EXPECT_EQ(mispred, res.mispredictions);
    EXPECT_EQ(branches, res.condBranches);
    EXPECT_EQ(forks, res.forks);
    EXPECT_EQ(used, res.correlatorUsed);
    EXPECT_EQ(res.intervals.back().endCycle -
                  res.intervals.front().startCycle,
              res.cycles);
}

// ---------------------------------------------------------------
// Determinism across worker counts
// ---------------------------------------------------------------

TEST(JobPoolObservability, OutputAndIntervalsIdenticalAcrossJobs)
{
    auto wl = workloads::buildVpr(smallParams());

    auto sweep = [&](unsigned jobs) {
        sim::JobPool pool(jobs);
        std::vector<int> items = {0, 1, 2, 3};
        testing::internal::CaptureStderr();
        auto results =
            pool.map(items, [&](int i) {
                SS_INFORM("job ", i, " starting");
                sim::Simulator m(sim::MachineConfig::fourWide());
                auto opts = runOpts(30'000);
                opts.intervalCycles = 2'000;
                auto r = m.run(wl, opts, true);
                SS_INFORM("job ", i, " cycles=", r.cycles);
                std::ostringstream csv;
                obs::writeIntervalsCsv(csv, r.intervals);
                return csv.str();
            });
        return std::make_pair(testing::internal::GetCapturedStderr(),
                              results);
    };

    auto [log1, iv1] = sweep(1);
    auto [log4, iv4] = sweep(4);

    // Per-job "[jN]"-prefixed lines flushed in submission order make
    // the log byte-identical regardless of worker count...
    EXPECT_EQ(log1, log4);
    EXPECT_NE(log1.find("[j0] info: job 0 starting"),
              std::string::npos);
    EXPECT_NE(log1.find("[j3] info: job 3"), std::string::npos);
    EXPECT_LT(log1.find("[j1] "), log1.find("[j2] "));

    // ...and the interval CSVs are bytewise equal too.
    ASSERT_EQ(iv1.size(), iv4.size());
    for (std::size_t i = 0; i < iv1.size(); ++i)
        EXPECT_EQ(iv1[i], iv4[i]) << "intervals differ for job " << i;
}

// ---------------------------------------------------------------
// Chrome trace emission and the bounded ring
// ---------------------------------------------------------------

TEST(EventBuffer, ChromeTraceIsWellFormed)
{
    obs::EventBuffer events(64);
    events.setNow(10);
    events.push(obs::EventKind::Fetch, 0, 0x1000, 1);
    events.setNow(12);
    events.push(obs::EventKind::SliceFork, 1, 0x8000, 2, 7);
    events.push(obs::EventKind::CorrPredCreate, 1, 0x8000, 3, 42);
    events.setNow(20);
    events.push(obs::EventKind::CorrPredUsed, 0, 0x1040, 9, 42);
    events.pushSpan(obs::EventKind::Region, 0, 900, 0, 0x1000, 0, 0);

    std::ostringstream os;
    events.writeChromeTrace(os);
    const std::string json = os.str();

    // Shape: a single object wrapping "traceEvents"; braces/brackets
    // balance; every emitted kind appears with its track metadata.
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '\n');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"slice.fork\""), std::string::npos);
    EXPECT_NE(json.find("\"corr.used\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 12"), std::string::npos);
    // A sampled region renders as a named span with its duration.
    EXPECT_NE(json.find("\"region 0\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 900"), std::string::npos);
    EXPECT_EQ(json.find("droppedEvents"), std::string::npos);
}

TEST(EventBuffer, RingBoundsAndOldestFirstDrain)
{
    obs::EventBuffer events(4);
    events.setNow(1);
    for (std::uint64_t i = 0; i < 10; ++i)
        events.push(obs::EventKind::Retire, 0, 0x1000 + i * 4, i, i);

    EXPECT_EQ(events.capacity(), 4u);
    EXPECT_EQ(events.size(), 4u);
    EXPECT_EQ(events.dropped(), 6u);

    std::vector<std::uint64_t> seen;
    events.forEach(
        [&](const obs::TraceEvent &e) { seen.push_back(e.arg); });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{6, 7, 8, 9}));

    std::ostringstream os;
    events.writeChromeTrace(os);
    EXPECT_NE(os.str().find("droppedEvents"), std::string::npos);

    events.clear();
    EXPECT_EQ(events.size(), 0u);
    EXPECT_EQ(events.dropped(), 0u);
}

TEST(EventBuffer, WraparoundKeepsNewestAndTimeBaseOffsets)
{
    // Spans and time-base offsets interact with the wraparound: the
    // ring must keep the newest (based) timestamps and drop count
    // must keep counting across clear-less reuse.
    obs::EventBuffer events(8);
    events.setTimeBase(1'000);
    events.setNow(0);
    for (std::uint64_t i = 0; i < 20; ++i) {
        events.setNow(i);
        events.push(obs::EventKind::Retire, 0, 0x1000, i, i);
    }
    EXPECT_EQ(events.size(), 8u);
    EXPECT_EQ(events.dropped(), 12u);

    std::vector<Cycle> ts;
    events.forEach(
        [&](const obs::TraceEvent &e) { ts.push_back(e.cycle); });
    ASSERT_EQ(ts.size(), 8u);
    // Newest 8 survive, each offset by the time base.
    EXPECT_EQ(ts.front(), 1'012u);
    EXPECT_EQ(ts.back(), 1'019u);
    for (std::size_t i = 1; i < ts.size(); ++i)
        EXPECT_EQ(ts[i], ts[i - 1] + 1);

    // A span pushed at an absolute timestamp also wraps the ring.
    events.pushSpan(obs::EventKind::Region, 5'000, 250, 0, 0x2000, 7,
                    3);
    EXPECT_EQ(events.dropped(), 13u);
    bool saw_span = false;
    events.forEach([&](const obs::TraceEvent &e) {
        if (e.kind == obs::EventKind::Region) {
            saw_span = true;
            EXPECT_EQ(e.cycle, 5'000u);
            EXPECT_EQ(e.dur, 250u);
            EXPECT_EQ(e.arg, 3u);
        }
    });
    EXPECT_TRUE(saw_span);
}

// ---------------------------------------------------------------
// Sampled runs: region spans and interval tiling
// ---------------------------------------------------------------

TEST(SimulatorTrace, SampledRunEmitsOneSpanPerRegion)
{
    workloads::Params p;
    p.scale = 400'000;
    auto wl = workloads::buildVpr(p);
    sim::Simulator simr(sim::MachineConfig::fourWide());

    obs::EventBuffer events(1u << 20);
    sim::RunOptions opts;
    opts.maxMainInstructions = 10'000;
    opts.warmupInstructions = 4'000;
    opts.fastForwardInstructions = 20'000;
    opts.sampleRegions = 3;
    opts.sampleStride = 20'000;
    opts.events = &events;

    auto res = simr.run(wl, opts, true);
    ASSERT_EQ(res.sampledRegions, 3u);
    ASSERT_EQ(events.dropped(), 0u) << "ring too small for this run";

    // One named span per region; spans are ordered, non-overlapping,
    // tagged with the region index and the sampling-stream position
    // the region started at.
    std::vector<obs::TraceEvent> spans;
    events.forEach([&](const obs::TraceEvent &e) {
        if (e.kind == obs::EventKind::Region)
            spans.push_back(e);
    });
    ASSERT_EQ(spans.size(), 3u);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].arg, i);
        EXPECT_GE(spans[i].dur, 1u);
        if (i) {
            EXPECT_GE(spans[i].cycle,
                      spans[i - 1].cycle + spans[i - 1].dur);
            EXPECT_GT(spans[i].seq, spans[i - 1].seq);
        }
    }
    EXPECT_EQ(spans[0].seq, 20'000u);
    EXPECT_EQ(spans[1].seq, 40'000u);

    // The buffer's time base ends past the last span, so a follow-on
    // run appended to the same buffer cannot overlap this timeline.
    EXPECT_GT(events.timeBase(), spans.back().cycle);
}

TEST(IntervalStats, WindowDeltasTileSampledRegions)
{
    workloads::Params p;
    p.scale = 400'000;
    auto wl = workloads::buildVpr(p);
    sim::Simulator simr(sim::MachineConfig::fourWide());

    sim::RunOptions opts;
    opts.maxMainInstructions = 10'000;
    opts.warmupInstructions = 4'000;
    opts.fastForwardInstructions = 20'000;
    opts.sampleRegions = 3;
    opts.sampleStride = 20'000;
    opts.intervalCycles = 1'000;

    auto res = simr.run(wl, opts, true);
    ASSERT_EQ(res.sampledRegions, 3u);
    ASSERT_GE(res.intervals.size(), 3u);

    // Region series are concatenated and each region restarts its
    // window index at 0; within a region, windows tile (each starts
    // where the previous ended).
    std::size_t region_starts = 0;
    std::uint64_t retired = 0;
    for (std::size_t i = 0; i < res.intervals.size(); ++i) {
        const obs::IntervalRecord &r = res.intervals[i];
        EXPECT_LT(r.startCycle, r.endCycle);
        if (r.index == 0) {
            ++region_starts;
        } else {
            ASSERT_GT(i, 0u);
            EXPECT_EQ(r.index, res.intervals[i - 1].index + 1);
            EXPECT_EQ(r.startCycle, res.intervals[i - 1].endCycle);
        }
        retired += r.retired;
    }
    EXPECT_EQ(region_starts, 3u);

    // The concatenated windows cover exactly the measured regions:
    // their deltas sum to the aggregated headline counter.
    EXPECT_EQ(retired, res.mainRetired);
}
