/**
 * @file
 * Tests for the public simulation facade: MachineConfig presets
 * (Table 1), Simulator run independence, sampled-run aggregation, the
 * simulated-throughput rate, the table formatter, and the experiment
 * library rows.
 */

#include <algorithm>
#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "sim/experiments.hh"
#include "sim/result_json.hh"
#include "sim/simulator.hh"
#include "sim/table.hh"
#include "workloads/workloads.hh"

using namespace specslice;

TEST(MachineConfigTest, Table1Presets)
{
    auto c4 = sim::MachineConfig::fourWide();
    EXPECT_EQ(c4.fetchWidth, 4u);
    EXPECT_EQ(c4.windowSize, 128u);
    EXPECT_EQ(c4.numMemPorts, 2u);
    EXPECT_EQ(c4.numComplex, 1u);
    EXPECT_EQ(c4.numThreads, 4u);
    EXPECT_EQ(c4.memory.l1dSize, 64u * 1024);
    EXPECT_EQ(c4.memory.l1dLineSize, 64u);
    EXPECT_EQ(c4.memory.l1Latency, 3u);
    EXPECT_EQ(c4.memory.l2Size, 2u * 1024 * 1024);
    EXPECT_EQ(c4.memory.l2LineSize, 128u);
    EXPECT_EQ(c4.memory.l2Latency, 6u);
    EXPECT_EQ(c4.memory.memLatency, 100u);
    EXPECT_EQ(c4.memory.pvBufEntries, 64u);
    EXPECT_EQ(c4.predictor.rasEntries, 64u);
    EXPECT_EQ(c4.correlator.entries, 64u);
    EXPECT_EQ(c4.correlator.predsPerBranch, 8u);
    EXPECT_EQ(c4.sliceTable.sliceEntries, 16u);
    EXPECT_EQ(c4.sliceTable.pgiEntries, 64u);

    auto c8 = sim::MachineConfig::eightWide();
    EXPECT_EQ(c8.fetchWidth, 8u);
    EXPECT_EQ(c8.windowSize, 256u);
    EXPECT_EQ(c8.numMemPorts, 4u);
}

TEST(SimulatorTest, RunsAreIndependent)
{
    // Running the same workload twice through one Simulator yields
    // identical results: no state leaks across runs.
    workloads::Params p;
    p.scale = 120'000;
    auto wl = workloads::buildVpr(p);
    sim::Simulator simr(sim::MachineConfig::fourWide());
    sim::RunOptions o;
    o.maxMainInstructions = 40'000;

    auto r1 = simr.run(wl, o, true);
    auto r2 = simr.run(wl, o, true);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.mispredictions, r2.mispredictions);
    EXPECT_EQ(r1.forks, r2.forks);
    EXPECT_EQ(r1.coveredMisses, r2.coveredMisses);
}

TEST(SimulatorTest, BaselineIgnoresSlices)
{
    workloads::Params p;
    p.scale = 100'000;
    auto wl = workloads::buildTwolf(p);
    sim::Simulator simr(sim::MachineConfig::fourWide());
    sim::RunOptions o;
    o.maxMainInstructions = 30'000;
    auto r = simr.runBaseline(wl, o);
    EXPECT_EQ(r.forks, 0u);
    EXPECT_EQ(r.sliceFetched, 0u);
}

TEST(WorkloadPerfTest, InstsPerSecExcludesWarmupTime)
{
    // mainRetired counts measured instructions only, so the rate must
    // divide by the measured region's wall time, not by a wall clock
    // that also covers the warm-up.
    workloads::Params p;
    p.scale = 100'000;
    auto wl = workloads::buildVpr(p);
    sim::Simulator simr(sim::MachineConfig::fourWide());
    sim::RunOptions o;
    o.maxMainInstructions = 20'000;
    o.warmupInstructions = 20'000;

    sim::WorkloadPerf perf;
    const auto t0 = std::chrono::steady_clock::now();
    perf.result = simr.run(wl, o, true);
    perf.wallSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

    ASSERT_GT(perf.result.wallMeasureSeconds, 0.0);
    EXPECT_LT(perf.result.wallMeasureSeconds, perf.wallSeconds);
    EXPECT_DOUBLE_EQ(perf.instsPerSec(),
                     static_cast<double>(perf.result.mainRetired) /
                         perf.result.wallMeasureSeconds);
}

TEST(TableTest, RendersAlignedColumns)
{
    sim::Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "12345"});
    std::string out = t.render();
    // Header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
    // Right-aligned numeric column: "1" ends where "12345" ends.
    auto line_of = [&](const std::string &needle) {
        auto pos = out.find(needle);
        auto start = out.rfind('\n', pos);
        auto end = out.find('\n', pos);
        return out.substr(start + 1, end - start - 1);
    };
    EXPECT_EQ(line_of("a ").size(), line_of("long-name").size());
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(sim::Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(sim::Table::pct(0.5), "50%");
    EXPECT_EQ(sim::Table::pct(0.123, 1), "12.3%");
    EXPECT_EQ(sim::Table::count(42), "42");
    EXPECT_EQ(sim::Table::kilo(1500), "1.5");
    EXPECT_EQ(sim::Table::mega(2'500'000), "2.5");
}

namespace
{

sim::ExperimentConfig
tinyConfig()
{
    sim::ExperimentConfig cfg;
    cfg.measureInsts = 40'000;
    cfg.warmupInsts = 15'000;
    return cfg;
}

} // namespace

TEST(ExperimentsTest, Table2RowFindsProblemInstructions)
{
    auto row = sim::runTable2Row(sim::MachineConfig::fourWide(),
                                 "twolf", tinyConfig());
    EXPECT_EQ(row.program, "twolf");
    EXPECT_FALSE(row.problem.problemBranches.empty());
    EXPECT_GT(row.problem.mispredCoverage(), 0.5);
}

TEST(ExperimentsTest, Figure1RowIsMonotonic)
{
    auto row = sim::runFigure1Row(sim::MachineConfig::fourWide(),
                                  "twolf", tinyConfig());
    EXPECT_GT(row.problemPerfectIpc, row.baselineIpc);
    EXPECT_GE(row.allPerfectIpc * 1.02, row.problemPerfectIpc);
}

TEST(ExperimentsTest, Figure11RowShowsSpeedupForVpr)
{
    auto row = sim::runFigure11Row(sim::MachineConfig::fourWide(),
                                   "vpr", tinyConfig());
    EXPECT_GT(row.slicePct(), 3.0);
    EXPECT_GE(row.limitPct() * 1.05, row.slicePct());
}

TEST(ExperimentsTest, Table4RowSkipsSliceless)
{
    EXPECT_FALSE(sim::runTable4Row(sim::MachineConfig::fourWide(),
                                   "parser", tinyConfig())
                     .has_value());
}

TEST(ExperimentsTest, Table4RowAccountsVpr)
{
    auto row = sim::runTable4Row(sim::MachineConfig::fourWide(), "vpr",
                                 tinyConfig());
    ASSERT_TRUE(row.has_value());
    EXPECT_GT(row->mispredRemovedPct, 30.0);
    EXPECT_GT(row->missRemovedPct, 30.0);
    EXPECT_GE(row->loadFraction, 0.0);
    EXPECT_LE(row->loadFraction, 1.0);
    // Total fetch work should not explode (Table 4's shape).
    EXPECT_LT(row->sliced.mainFetched + row->sliced.sliceFetched,
              row->base.mainFetched * 13 / 10);
}
