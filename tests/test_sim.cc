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

using sim::PaperAblation;
using sim::PaperMachine;
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
    for (PaperMachine m : {PaperMachine::FourWide, PaperMachine::EightWide}) {
        const sim::RunResult &profiled =
            plan.result("mcf", PaperRole::Baseline, m);
        ASSERT_FALSE(profiled.profile.perPc.empty());
        sim::Simulator simr(m == PaperMachine::EightWide
                                ? sim::MachineConfig::eightWide()
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
    // runs, and the sliced run. vpr: those, its limit run, Table 4's
    // two covered-PC runs and its 9 ablation variants (parser is in no
    // ablation).
    EXPECT_EQ(names.size(), 7u + 10u + 9u);
}

namespace
{

/** The name of the plan's record holding r. */
std::string
recordName(const sim::PaperPlan &plan, const sim::RunResult &r)
{
    for (const sim::WorkloadPerf &p : plan.records())
        if (&p.result == &r)
            return p.name;
    return "";
}

/** vpr and gzip are in all three ablations. */
const sim::PaperPlan &
ablationPlan()
{
    static const sim::PaperPlan plan = tinyPlan({"vpr", "gzip"});
    return plan;
}

} // namespace

// Each ablation's baseline and 4-wide sliced run are the sweep's own
// records, so only its variant machines add runs.
TEST(PaperPlanTest, AblationsShareTheSweepsRuns)
{
    const sim::PaperPlan &plan = ablationPlan();
    // vpr: 10 runs as in EqualRunsRunOnce. gzip: 8, since it has no
    // covered loads at these lengths, so Table 4's covered-loads run is
    // its baseline and its covered-branches run its limit run. Each
    // adds 9 variant machines' sliced runs.
    EXPECT_EQ(plan.records().size(), 10u + 8u + 2 * 9u);

    // The fixed row lists, cut to the plan's workloads, in list order.
    using Names = std::vector<std::string>;
    EXPECT_EQ(plan.ablationWorkloads(PaperAblation::Correlator),
              (Names{"vpr", "gzip"}));
    EXPECT_EQ(plan.ablationWorkloads(PaperAblation::Fork),
              (Names{"vpr", "gzip"}));
    EXPECT_EQ(plan.ablationWorkloads(PaperAblation::Overhead),
              (Names{"gzip", "vpr"}));

    for (PaperAblation a : {PaperAblation::Correlator, PaperAblation::Fork,
                            PaperAblation::Overhead}) {
        for (const std::string &name : plan.ablationWorkloads(a)) {
            EXPECT_EQ(recordName(plan, plan.result(name, PaperRole::Baseline)),
                      name + ".4w.baseline");
            EXPECT_EQ(recordName(plan, plan.result(name, PaperRole::Sliced)),
                      name + ".4w.sliced");
        }
    }
    EXPECT_EQ(recordName(plan, plan.result("vpr", PaperRole::Sliced,
                                           PaperMachine::NoDeadStop)),
              "vpr.4w_no_dead_stop.sliced");

    Names names;
    for (const sim::WorkloadPerf &p : plan.records())
        names.push_back(p.name);
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

// One direction per ablation that its table is meant to show, on the
// workloads where it holds by a wide margin at these lengths.
TEST(PaperPlanTest, AblationCountersMoveTheExpectedWay)
{
    const sim::PaperPlan &plan = ablationPlan();
    auto sliced = [&](const std::string &name,
                      PaperMachine m) -> const sim::RunResult & {
        return plan.result(name, PaperRole::Sliced, m);
    };
    for (const std::string name : {"vpr", "gzip"}) {
        const sim::RunResult &full = sliced(name, PaperMachine::FourWide);
        // Correlator: one prediction slot per branch loses predictions.
        EXPECT_LT(sliced(name, PaperMachine::OneSlotQueue).correlatorUsed,
                  full.correlatorUsed)
            << name;
        // Fork: one helper context ignores at least as many forks as 3.
        EXPECT_GE(sliced(name, PaperMachine::TwoContexts).forksIgnored,
                  full.forksIgnored)
            << name;
    }
    // Overhead: gzip's hoisted fork forks useless slices, so the
    // confidence gate stops some.
    EXPECT_GT(
        sliced("gzip", PaperMachine::ForkGated).detail.get("forks_gated"),
        0u);
}
