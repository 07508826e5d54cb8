/**
 * @file
 * Quiet-cycle skipping is invisible. SmtCore::run jumps over cycles
 * in which no stage acts; RunOptions::intervalCycles = 1 makes every
 * cycle an event, so the same run with it steps cycle by cycle and is
 * the reference. Each case runs both ways and expects every digest
 * counter, the cycle counts, the outcome, the watchdog diagnosis and
 * the recorded event stream to agree.
 */

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obs/events.hh"
#include "sim/experiments.hh"
#include "sim/result_json.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

sim::ExperimentConfig
shortRuns()
{
    sim::ExperimentConfig cfg;
    cfg.warmupInsts = 2'000;
    cfg.measureInsts = 4'000;
    return cfg;
}

/** The buffer's events, oldest first. */
std::vector<obs::TraceEvent>
eventStream(const obs::EventBuffer &events)
{
    std::vector<obs::TraceEvent> out;
    out.reserve(events.size());
    events.forEach([&](const obs::TraceEvent &e) { out.push_back(e); });
    return out;
}

/** Run opts as given and stepped; expect identical results and
 *  event streams. @return the skipping run. */
sim::RunResult
expectStepEquivalent(const sim::MachineConfig &machine,
                     const sim::Workload &wl, sim::RunOptions opts,
                     bool with_slices)
{
    sim::Simulator simr(machine);
    obs::EventBuffer skip_events, step_events;
    opts.events = &skip_events;
    sim::RunResult skipping = simr.run(wl, opts, with_slices);
    opts.intervalCycles = 1;
    opts.events = &step_events;
    const sim::RunResult stepped = simr.run(wl, opts, with_slices);

    EXPECT_GT(skipping.skippedCycles, 0u);
    EXPECT_EQ(stepped.skippedCycles, 0u);
    EXPECT_EQ(sim::digestSection("", skipping).counters,
              sim::digestSection("", stepped).counters);
    EXPECT_EQ(skipping.cycles, stepped.cycles);
    EXPECT_EQ(skipping.totalCycles, stepped.totalCycles);
    EXPECT_EQ(skipping.outcome, stepped.outcome);
    EXPECT_EQ(skipping.diagnosis, stepped.diagnosis);

    EXPECT_EQ(skip_events.dropped(), 0u);
    EXPECT_EQ(step_events.dropped(), 0u);
    const auto skip_stream = eventStream(skip_events);
    const auto step_stream = eventStream(step_events);
    EXPECT_EQ(skip_stream.size(), step_stream.size());
    const auto diff =
        std::mismatch(skip_stream.begin(), skip_stream.end(),
                      step_stream.begin(), step_stream.end());
    EXPECT_TRUE(diff.first == skip_stream.end())
        << "event streams differ from event "
        << diff.first - skip_stream.begin();
    return skipping;
}

/** The same for a sliced run of the named workload, built at the
 *  shortRuns() scale. */
sim::RunResult
expectStepEquivalent(const sim::MachineConfig &machine,
                     const std::string &workload,
                     const sim::RunOptions &opts)
{
    const sim::ExperimentConfig cfg = shortRuns();
    const sim::Workload wl =
        sim::buildBenchWorkload(workload, cfg.seed, cfg.runOptions());
    return expectStepEquivalent(machine, wl, opts, true);
}

} // namespace

/** (workload, "baseline" | "slices" | "limit") */
class SkipEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(SkipEquivalence, MatchesSteppedRun)
{
    const auto &[name, mode] = GetParam();
    const sim::ExperimentConfig cfg = shortRuns();
    const sim::Workload wl =
        sim::buildBenchWorkload(name, cfg.seed, cfg.runOptions());
    const sim::RunOptions opts =
        mode == "limit" ? sim::limitOptions(wl, cfg.runOptions())
                        : cfg.runOptions();
    expectStepEquivalent(sim::MachineConfig::fourWide(), wl, opts,
                         mode == "slices");
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SkipEquivalence,
    ::testing::Combine(::testing::ValuesIn(workloads::allWorkloadNames()),
                       ::testing::Values("baseline", "slices", "limit")),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(SkipEquivalenceConfigs, EightWide)
{
    for (const char *wl : {"mcf", "vpr"}) {
        SCOPED_TRACE(wl);
        expectStepEquivalent(sim::MachineConfig::eightWide(), wl,
                             shortRuns().runOptions());
    }
}

TEST(SkipEquivalenceConfigs, EightThreads)
{
    sim::MachineConfig machine = sim::MachineConfig::fourWide();
    machine.numThreads = 8;
    for (const char *wl : {"mcf", "gap"}) {
        SCOPED_TRACE(wl);
        expectStepEquivalent(machine, wl, shortRuns().runOptions());
    }
}

TEST(SkipEquivalenceConfigs, DedicatedSliceResources)
{
    sim::MachineConfig machine = sim::MachineConfig::fourWide();
    machine.dedicatedSliceResources = true;
    for (const char *wl : {"mcf", "vpr"}) {
        SCOPED_TRACE(wl);
        expectStepEquivalent(machine, wl, shortRuns().runOptions());
    }
}

TEST(SkipEquivalenceConfigs, SampledRegions)
{
    workloads::Params p;
    p.scale = 200'000;  // long enough to fast-forward into
    const sim::Workload wl = workloads::buildWorkload("mcf", p);
    sim::RunOptions opts = shortRuns().runOptions();
    opts.fastForwardInstructions = 50'000;
    opts.sampleRegions = 2;
    opts.sampleStride = 20'000;
    const sim::RunResult r = expectStepEquivalent(
        sim::MachineConfig::fourWide(), wl, opts, true);
    EXPECT_EQ(r.sampledRegions, 2u);
}

// The two timing perturbations below change every stall but no
// architectural value: the checker co-simulates both runs.

TEST(SkipEquivalenceConfigs, WriteBufferBackPressure)
{
    // A one-set L1D evicts a store's line before the store retires, so
    // retirement goes through the one-entry write buffer and often
    // finds it full.
    sim::MachineConfig machine = sim::MachineConfig::fourWide();
    machine.memory.l1dSize = 2 * 64;
    machine.memory.writeBufEntries = 1;
    sim::RunOptions opts = shortRuns().runOptions();
    opts.check = true;
    const sim::RunResult r = expectStepEquivalent(machine, "vpr", opts);
    EXPECT_EQ(r.outcome, sim::SimOutcome::Completed);
    EXPECT_GT(r.detail.get("retire_wb_stalls"), 0u);
}

TEST(SkipEquivalenceConfigs, SlowMemory)
{
    sim::MachineConfig machine = sim::MachineConfig::fourWide();
    machine.memory.memLatency = 300;
    sim::RunOptions opts = shortRuns().runOptions();
    opts.check = true;
    for (const char *wl : {"mcf", "vpr"}) {
        SCOPED_TRACE(wl);
        expectStepEquivalent(machine, wl, opts);
    }
}

TEST(SkipEquivalenceWatchdog, FiresAtTheSameCycleOnLivelock)
{
    // With a one-set L1D a store's line is evicted before it retires,
    // and a write buffer with no entries refuses it for ever: every
    // retry is an active cycle. Both runs must end in the watchdog
    // with the same diagnosis.
    sim::MachineConfig machine = sim::MachineConfig::fourWide();
    machine.memory.l1dSize = 2 * 64;
    machine.memory.writeBufEntries = 0;
    sim::RunOptions opts = shortRuns().runOptions();
    opts.watchdogCycles = 5'000;
    const sim::RunResult r = expectStepEquivalent(machine, "vpr", opts);
    EXPECT_EQ(r.outcome, sim::SimOutcome::Watchdog);
    EXPECT_NE(r.diagnosis.find("retired nothing for 5000 cycles"),
              std::string::npos)
        << r.diagnosis;
}

TEST(SkipEquivalenceWatchdog, FiresAtTheSameCycleWhenQuiet)
{
    // Every memory access takes a million cycles: the machine goes
    // quiet with nothing scheduled before the watchdog deadline, which
    // is then the event the skip must stop at.
    sim::MachineConfig machine = sim::MachineConfig::fourWide();
    machine.memory.memLatency = 1'000'000;
    sim::RunOptions opts = shortRuns().runOptions();
    opts.watchdogCycles = 5'000;
    const sim::RunResult r = expectStepEquivalent(machine, "mcf", opts);
    EXPECT_EQ(r.outcome, sim::SimOutcome::Watchdog);
    EXPECT_NE(r.diagnosis.find("retired nothing for 5000 cycles"),
              std::string::npos)
        << r.diagnosis;
}

TEST(SkippedCycles, StallBoundRunSkipsMostCycles)
{
    // Guards the optimisation itself: if skipping silently stopped,
    // every equivalence case above would still pass.
    const sim::ExperimentConfig cfg = shortRuns();
    const sim::Workload wl =
        sim::buildBenchWorkload("mcf", cfg.seed, cfg.runOptions());
    sim::Simulator simr(sim::MachineConfig::fourWide());
    sim::RunOptions opts = cfg.runOptions();
    const sim::RunResult r = simr.run(wl, opts, true);
    EXPECT_GT(2 * r.skippedCycles, r.totalCycles);

    opts.intervalCycles = 1;
    EXPECT_EQ(simr.run(wl, opts, true).skippedCycles, 0u);
}
