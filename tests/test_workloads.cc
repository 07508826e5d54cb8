/**
 * @file
 * Workload-suite tests, parameterized over all 12 benchmarks: each
 * builds, runs to its instruction budget on both machine widths, has
 * a plausible IPC, (when it ships slices) forks them with highly
 * accurate predictions, and executes at least half its scale before
 * halting. Also checks the documented per-benchmark shapes (parser
 * has no slices, vortex's is prefetch-only, etc.).
 */

#include <gtest/gtest.h>

#include "arch/fastfwd.hh"
#include "sim/simulator.hh"
#include "slice/validator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

workloads::Params
smallParams()
{
    workloads::Params p;
    p.scale = 200'000;
    return p;
}

core::RunOptions
runOpts()
{
    core::RunOptions o;
    o.maxMainInstructions = 60'000;
    o.warmupInstructions = 20'000;
    return o;
}

} // namespace

class WorkloadSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadSuite, BuildsWithConsistentMetadata)
{
    auto wl = workloads::buildWorkload(GetParam(), smallParams());
    EXPECT_EQ(wl.name, GetParam());
    EXPECT_NE(wl.entry, invalidAddr);
    EXPECT_NE(wl.program.fetch(wl.entry), nullptr);
    EXPECT_TRUE(static_cast<bool>(wl.initMemory));
    for (const auto &sd : wl.slices) {
        EXPECT_NE(wl.program.fetch(sd.forkPc), nullptr)
            << "fork PC must be an existing main-thread instruction";
        EXPECT_NE(wl.program.fetch(sd.slicePc), nullptr);
        EXPECT_LE(sd.liveIns.size(), 4u)
            << "slices rarely need more than 4 live-ins (Sec. 3.2)";
        for (const auto &pgi : sd.pgis) {
            const isa::Instruction *br =
                wl.program.fetch(pgi.problemBranchPc);
            ASSERT_NE(br, nullptr);
            EXPECT_TRUE(br->isCondBranch());
            ASSERT_NE(wl.program.fetch(pgi.sliceInstPc), nullptr);
            EXPECT_NE(wl.program.fetch(pgi.sliceKillPc), nullptr);
        }
        // Slices perform no stores (checked statically here, enforced
        // at execution too).
        for (Addr pc = sd.slicePc;
             pc < sd.slicePc + sd.staticSize * isa::instBytes;
             pc += isa::instBytes) {
            const isa::Instruction *si = wl.program.fetch(pc);
            ASSERT_NE(si, nullptr);
            EXPECT_FALSE(si->isStore())
                << wl.name << " slice stores at 0x" << std::hex << pc;
        }
    }
}

TEST_P(WorkloadSuite, BaselineRunsOnBothWidths)
{
    auto wl = workloads::buildWorkload(GetParam(), smallParams());
    sim::Simulator four(sim::MachineConfig::fourWide());
    sim::Simulator eight(sim::MachineConfig::eightWide());
    auto r4 = four.runBaseline(wl, runOpts());
    auto r8 = eight.runBaseline(wl, runOpts());

    EXPECT_GE(r4.mainRetired + 8, 60'000u);
    EXPECT_GT(r4.ipc(), 0.03);
    EXPECT_LT(r4.ipc(), 4.0);
    // Wider machine is never slower (tolerate 2% noise).
    EXPECT_LE(r8.cycles, r4.cycles * 102 / 100);
}

TEST_P(WorkloadSuite, SlicesForkAndPredictAccurately)
{
    auto wl = workloads::buildWorkload(GetParam(), smallParams());
    sim::Simulator simr(sim::MachineConfig::fourWide());
    auto res = simr.run(wl, runOpts(), true);

    if (wl.slices.empty()) {
        EXPECT_EQ(res.forks, 0u);
        return;
    }
    EXPECT_GT(res.forks, 10u) << "slices should fork regularly";
    if (res.correlatorUsed > 100) {
        // Paper: overriding predictions exceed 99% accuracy; allow 3%.
        EXPECT_LT(res.correlatorWrong * 100, res.correlatorUsed * 3)
            << res.correlatorWrong << " of " << res.correlatorUsed;
    }
}

TEST_P(WorkloadSuite, DeterministicForFixedSeed)
{
    auto wl1 = workloads::buildWorkload(GetParam(), smallParams());
    auto wl2 = workloads::buildWorkload(GetParam(), smallParams());
    sim::Simulator simr(sim::MachineConfig::fourWide());
    auto r1 = simr.run(wl1, runOpts(), true);
    auto r2 = simr.run(wl2, runOpts(), true);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.mispredictions, r2.mispredictions);
    EXPECT_EQ(r1.forks, r2.forks);
}

// The tools build a workload at twice the instructions a run fetches
// (warm-up plus measured), so every kernel must execute at least half
// its scale, plus a few instructions of slack for the fetch window,
// before it halts.
TEST_P(WorkloadSuite, DynamicLengthCoversScale)
{
    for (std::uint64_t scale : {50'000u, 60'000u, 150'000u}) {
        for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 203u,
                                   925u}) {
            workloads::Params p;
            p.scale = scale;
            p.seed = seed;
            auto wl = workloads::buildWorkload(GetParam(), p);
            arch::FastForward ff(wl.program);
            ff.reset(wl.entry);
            if (wl.initMemory)
                wl.initMemory(ff.mem());
            const std::uint64_t needed = scale / 2 + 4;
            ff.advanceTo(needed);
            EXPECT_GE(ff.executed(), needed)
                << "scale " << scale << ", seed " << seed << ": stopped ("
                << arch::ffStopName(ff.lastStop()) << ") after "
                << ff.executed() << " instructions";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadSuite,
    ::testing::ValuesIn(workloads::allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(WorkloadShapes, ParserShipsNoSlices)
{
    auto wl = workloads::buildWorkload("parser", smallParams());
    EXPECT_TRUE(wl.slices.empty()) << "Section 6.2: parser fails";
}

TEST(WorkloadShapes, VortexSliceIsPrefetchOnly)
{
    auto wl = workloads::buildWorkload("vortex", smallParams());
    ASSERT_EQ(wl.slices.size(), 1u);
    EXPECT_TRUE(wl.slices[0].pgis.empty());
    EXPECT_FALSE(wl.slices[0].prefetchLoadPcs.empty());
}

TEST(WorkloadShapes, EonSliceHasSixPredictionsNoLoop)
{
    auto wl = workloads::buildWorkload("eon", smallParams());
    ASSERT_EQ(wl.slices.size(), 1u);
    EXPECT_EQ(wl.slices[0].pgis.size(), 6u);
    EXPECT_EQ(wl.slices[0].maxLoopIters, 0u);
}

TEST(WorkloadShapes, VprSliceMatchesFigure5)
{
    auto wl = workloads::buildWorkload("vpr", smallParams());
    ASSERT_EQ(wl.slices.size(), 1u);
    const auto &sd = wl.slices[0];
    EXPECT_EQ(sd.liveIns.size(), 2u);      // cost + gp
    EXPECT_EQ(sd.maxLoopIters, 18u);
    EXPECT_LE(sd.staticSize, 12u);         // small, like Figure 5
    EXPECT_EQ(sd.prefetchLoadPcs.size(), 2u);
    EXPECT_EQ(sd.forkPc, wl.program.symbol("node_to_heap"));
}

TEST(WorkloadShapes, SliceTablesFitHardwareBudget)
{
    // Figure 6: 16 slice entries, 64 PGI entries. Every workload's
    // slices must load into one slice table.
    for (const auto &name : workloads::allWorkloadNames()) {
        auto wl = workloads::buildWorkload(name, smallParams());
        slice::SliceTable st;
        std::size_t pgis = 0;
        for (const auto &sd : wl.slices) {
            st.load(sd);
            pgis += sd.pgis.size();
        }
        EXPECT_LE(st.numSlices(), 16u) << name;
        EXPECT_LE(pgis, 64u) << name;
    }
}

TEST(WorkloadShapes, SlicesGenerateEventEveryFewInstructions)
{
    // Section 3.2: a prefetch or prediction roughly every 2-4 slice
    // instructions (check the static ratio on loop slices).
    for (const auto &name : workloads::allWorkloadNames()) {
        auto wl = workloads::buildWorkload(name, smallParams());
        for (const auto &sd : wl.slices) {
            if (sd.maxLoopIters == 0)
                continue;
            unsigned events = static_cast<unsigned>(
                sd.pgis.size() + sd.prefetchLoadPcs.size());
            ASSERT_GT(events, 0u) << name;
            EXPECT_LE(slice::loopStaticSize(sd, wl.program),
                      events * 4 + 2)
                << name;
        }
    }
}
