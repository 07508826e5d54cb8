/**
 * @file
 * Tests for the Section 6.3 overhead-reduction extensions: the
 * fork-confidence gate (skips useless fork points, keeps useful ones,
 * re-probes) and dedicated slice resources (separate fetch/window/
 * issue for helper threads).
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

workloads::Params
params()
{
    workloads::Params p;
    p.scale = 250'000;
    return p;
}

core::RunOptions
opts()
{
    core::RunOptions o;
    o.maxMainInstructions = 80'000;
    o.warmupInstructions = 30'000;
    return o;
}

} // namespace

TEST(ForkGate, KeepsUsefulForkPointsUngated)
{
    // vpr's slice is consumed constantly: the gate must never engage,
    // and results must match the ungated run exactly.
    auto wl = workloads::buildVpr(params());

    sim::Simulator plain(sim::MachineConfig::fourWide());
    auto r1 = plain.run(wl, opts(), true);

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.forkConfidenceGating = true;
    sim::Simulator gated(cfg);
    auto r2 = gated.run(wl, opts(), true);

    EXPECT_EQ(r2.detail.get("forks_gated"), 0u);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.forks, r2.forks);
}

TEST(ForkGate, GatesUselessForkPoints)
{
    // crafty's slice predictions are essentially always late and
    // unconsumed: the gate should shut most forks off.
    auto wl = workloads::buildCrafty(params());

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.forkConfidenceGating = true;
    sim::Simulator gated(cfg);
    auto r = gated.run(wl, opts(), true);

    EXPECT_GT(r.detail.get("forks_gated"), 200u);
    // And it keeps probing rather than shutting off forever.
    EXPECT_GT(r.forks, 10u);
}

TEST(ForkGate, ReducesSliceOverheadWhereUseless)
{
    auto wl = workloads::buildCrafty(params());

    sim::Simulator plain(sim::MachineConfig::fourWide());
    auto r1 = plain.run(wl, opts(), true);

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.forkConfidenceGating = true;
    sim::Simulator gated(cfg);
    auto r2 = gated.run(wl, opts(), true);

    EXPECT_LT(r2.sliceFetched * 2, r1.sliceFetched + 1000);
}

TEST(DedicatedResources, RecoverOverheadBoundBenchmark)
{
    // bzip2 loses with shared resources; with dedicated slice
    // hardware the overhead vanishes and it must at least break even.
    auto wl = workloads::buildBzip2(params());

    sim::Simulator base_sim(sim::MachineConfig::fourWide());
    auto base = base_sim.runBaseline(wl, opts());

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.dedicatedSliceResources = true;
    sim::Simulator ded(cfg);
    auto r = ded.run(wl, opts(), true);

    EXPECT_LE(r.cycles, base.cycles * 101 / 100)
        << "dedicated-resource slices must not lose on bzip2";
}

TEST(DedicatedResources, ArchitecturallyTransparent)
{
    // Same retired work, same predictions semantics.
    auto wl = workloads::buildTwolf(params());

    sim::Simulator plain(sim::MachineConfig::fourWide());
    auto r1 = plain.run(wl, opts(), true);

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.dedicatedSliceResources = true;
    sim::Simulator ded(cfg);
    auto r2 = ded.run(wl, opts(), true);

    EXPECT_NEAR(static_cast<double>(r1.mainRetired),
                static_cast<double>(r2.mainRetired), 8.0);
    // Overrides stay essentially perfect in both modes.
    if (r2.correlatorUsed > 100) {
        EXPECT_LT(r2.correlatorWrong * 100, r2.correlatorUsed * 3);
    }
}

TEST(DedicatedResources, SlicesFetchInParallelWithMain)
{
    // With a dedicated port the helper threads fetch more (they no
    // longer wait for the main thread to stall).
    auto wl = workloads::buildVpr(params());

    sim::Simulator plain(sim::MachineConfig::fourWide());
    auto r1 = plain.run(wl, opts(), true);

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.dedicatedSliceResources = true;
    sim::Simulator ded(cfg);
    auto r2 = ded.run(wl, opts(), true);

    EXPECT_GE(r2.sliceFetched + 1000, r1.sliceFetched);
    EXPECT_GT(r2.forks, 100u);
}
