/**
 * @file
 * Tests for the public simulation facade: MachineConfig presets
 * (Table 1), Simulator run independence, sampled-run aggregation, the
 * simulated-throughput rate, the table formatter, and the paper plan.
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

/** The paper plan over names at tinyConfig's lengths, run. */
sim::PaperPlan
tinyPlan(std::vector<std::string> names)
{
    sim::PaperPlan plan(tinyConfig(), std::move(names));
    sim::JobPool pool(2);
    plan.run(pool);
    return plan;
}

using sim::PaperRole;

} // namespace

TEST(ExperimentsTest, Table2RowFindsProblemInstructions)
{
    const sim::PaperPlan plan = tinyPlan({"twolf"});
    EXPECT_EQ(plan.records().front().name, "twolf.4w.baseline");
    const profile::ProblemInstructions problem = plan.problems("twolf");
    EXPECT_FALSE(problem.problemBranches.empty());
    EXPECT_GT(problem.mispredCoverage(), 0.5);
}

TEST(ExperimentsTest, Figure1RowIsMonotonic)
{
    const sim::PaperPlan plan = tinyPlan({"twolf"});
    auto ipc = [&](PaperRole role) {
        return plan.result("twolf", role).ipc();
    };
    EXPECT_GT(ipc(PaperRole::ProblemPerfect), ipc(PaperRole::Baseline));
    EXPECT_GE(ipc(PaperRole::AllPerfect) * 1.02,
              ipc(PaperRole::ProblemPerfect));
}

TEST(ExperimentsTest, Figure11RowShowsSpeedupForVpr)
{
    const sim::PaperPlan plan = tinyPlan({"vpr"});
    const sim::RunResult &base = plan.result("vpr", PaperRole::Baseline);
    const double slice_pct =
        sim::speedupPct(base, plan.result("vpr", PaperRole::Sliced));
    EXPECT_GT(slice_pct, 3.0);
    EXPECT_GE(sim::speedupPct(base, plan.result("vpr", PaperRole::Limit)) *
                  1.05,
              slice_pct);
}

TEST(ExperimentsTest, Table4RowSkipsSliceless)
{
    EXPECT_FALSE(tinyPlan({"parser"}).inTable4("parser"));
}

TEST(ExperimentsTest, Table4RowAccountsVpr)
{
    const sim::PaperPlan plan = tinyPlan({"vpr"});
    ASSERT_TRUE(plan.inTable4("vpr"));
    const sim::RunResult &base = plan.result("vpr", PaperRole::Baseline);
    const sim::RunResult &sliced = plan.result("vpr", PaperRole::Sliced);
    // Slices remove more than 30% of the mispredictions and misses.
    EXPECT_LT(sliced.mispredictions, 0.7 * base.mispredictions);
    EXPECT_LT(sliced.l1dMissesMain, 0.7 * base.l1dMissesMain);
    EXPECT_GE(plan.loadFraction("vpr"), 0.0);
    EXPECT_LE(plan.loadFraction("vpr"), 1.0);
    // Total fetch work should not explode (Table 4's shape).
    EXPECT_LT(sliced.mainFetched + sliced.sliceFetched,
              base.mainFetched * 13 / 10);
}

// Each width's profiled baseline stands for every baseline of that
// width, which holds only because profiling changes no counter.
TEST(PaperPlanTest, ProfiledBaselineEqualsUnprofiledRun)
{
    const sim::PaperPlan plan = tinyPlan({"mcf"});
    for (bool wide : {false, true}) {
        const sim::RunResult &profiled =
            plan.result("mcf", PaperRole::Baseline, wide);
        ASSERT_FALSE(profiled.profile.perPc.empty());
        sim::Simulator simr(wide ? sim::MachineConfig::eightWide()
                                 : sim::MachineConfig::fourWide());
        const sim::RunResult plain = simr.runBaseline(
            plan.workload("mcf"), tinyConfig().runOptions());
        EXPECT_TRUE(plain.profile.perPc.empty());
        EXPECT_EQ(sim::digestSection("base", profiled).counters,
                  sim::digestSection("base", plain).counters);
    }
}

// parser has no slices, so its limit and covered-PC runs perfect
// nothing: each is its baseline, which runs once.
TEST(PaperPlanTest, EqualRunsRunOnce)
{
    const sim::PaperPlan plan = tinyPlan({"parser", "vpr"});
    EXPECT_EQ(plan.runFor("parser", PaperRole::Limit),
              plan.runFor("parser", PaperRole::Baseline));
    EXPECT_EQ(&plan.result("parser", PaperRole::Limit),
              &plan.result("parser", PaperRole::Baseline));
    EXPECT_NE(plan.runFor("vpr", PaperRole::Limit),
              plan.runFor("vpr", PaperRole::Baseline));

    std::vector<std::string> names;
    for (const sim::WorkloadPerf &p : plan.records())
        names.push_back(p.name);
    for (std::size_t i = 0; i < names.size(); ++i)
        for (std::size_t j = i + 1; j < names.size(); ++j)
            EXPECT_NE(names[i], names[j]);
    // parser: both widths' baselines, all-perfect and problem-perfect
    // runs, and the sliced run. vpr: those, its limit run and Table 4's
    // two covered-PC runs.
    EXPECT_EQ(names.size(), 7u + 10u);
}
