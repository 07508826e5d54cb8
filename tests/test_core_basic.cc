/**
 * @file
 * Basic single-thread pipeline tests: programs run to completion,
 * retire the right instruction counts, and produce correct
 * architectural results; branch mispredictions cost cycles; cache
 * misses cost cycles. Also how a run ends: the cycle limit, the
 * forward-progress watchdog on a real livelock, and the outcome names.
 */

#include <gtest/gtest.h>

#include "arch/memimg.hh"
#include "common/failure.hh"
#include "core/smt_core.hh"
#include "isa/assembler.hh"
#include "isa/program.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

constexpr Addr codeBase = 0x10000;
constexpr Addr dataBase = 0x100000;

core::RunOptions
quickOpts(std::uint64_t max_insts = 100000)
{
    core::RunOptions o;
    o.maxMainInstructions = max_insts;
    return o;
}

} // namespace

TEST(CoreBasic, StraightLineRetiresAndHalts)
{
    isa::Assembler as(codeBase);
    as.ldi(1, 5);
    as.ldi(2, 7);
    as.add(3, 1, 2);
    as.ldi64(4, dataBase);
    as.stq(3, 4, 0);
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());

    arch::MemoryImage mem;
    core::SmtCore machine(core::CoreConfig::fourWide(), prog, mem);
    auto res = machine.run(codeBase, quickOpts());

    EXPECT_EQ(res.mainRetired, 6u);
    EXPECT_EQ(mem.readQ(dataBase), 12u);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_LT(res.cycles, 200u);
}

TEST(CoreBasic, CountedLoopComputesSum)
{
    // sum = 1 + 2 + ... + 100
    isa::Assembler as(codeBase);
    as.ldi(1, 0);    // sum
    as.ldi(2, 100);  // i
    as.label("loop");
    as.add(1, 1, 2);
    as.subi(2, 2, 1);
    as.bgt(2, "loop");
    as.ldi64(4, dataBase);
    as.stq(1, 4, 0);
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());

    arch::MemoryImage mem;
    core::SmtCore machine(core::CoreConfig::fourWide(), prog, mem);
    auto res = machine.run(codeBase, quickOpts());

    EXPECT_EQ(mem.readQ(dataBase), 5050u);
    // 2 + 100*3 + 3 dynamic instructions.
    EXPECT_EQ(res.mainRetired, 305u);
    EXPECT_EQ(res.condBranches, 100u);
    // A well-trained loop branch mispredicts at most a few times.
    EXPECT_LE(res.mispredictions, 4u);
}

TEST(CoreBasic, DataDependentChainIsSlow)
{
    // A serial dependence chain runs at ~1 IPC; the same op count
    // spread over 8 independent chains runs near full width. Loops
    // keep the I-footprint tiny so cold-cache effects do not dominate.
    isa::Assembler serial(codeBase);
    serial.ldi(9, 256);
    serial.label("loop");
    for (int i = 0; i < 16; ++i)
        serial.addi(1, 1, 1);
    serial.subi(9, 9, 1);
    serial.bgt(9, "loop");
    serial.halt();
    isa::Program sp;
    sp.addSection(serial.finish());

    isa::Assembler parallel(codeBase);
    parallel.ldi(9, 256);
    parallel.label("loop");
    for (int i = 0; i < 2; ++i)
        for (int r = 1; r <= 8; ++r)
            parallel.addi(static_cast<RegIndex>(r),
                          static_cast<RegIndex>(r), 1);
    parallel.subi(9, 9, 1);
    parallel.bgt(9, "loop");
    parallel.halt();
    isa::Program pp;
    pp.addSection(parallel.finish());

    arch::MemoryImage m1, m2;
    core::SmtCore c1(core::CoreConfig::fourWide(), sp, m1);
    core::SmtCore c2(core::CoreConfig::fourWide(), pp, m2);
    auto r1 = c1.run(codeBase, quickOpts());
    auto r2 = c2.run(codeBase, quickOpts());

    EXPECT_GT(r1.cycles, 16u * 256u);     // serial: 1 IPC bound
    EXPECT_LT(r2.cycles, r1.cycles / 2);  // parallel is much faster
}

TEST(CoreBasic, UnpredictableBranchesCostCycles)
{
    // Branch on a pseudo-random bit: ~50% mispredictions, each costing
    // roughly the 14-stage penalty.
    isa::Assembler as(codeBase);
    as.ldi(1, 12345);  // lfsr-ish state
    as.ldi(2, 2000);   // iterations
    as.ldi(5, 0);      // taken counter
    as.label("loop");
    // state = state * 1103515245 + 12345 (complex unit keeps it slow
    // enough to matter but the branch is the point)
    as.ldi(3, 1103515245);
    as.mul(1, 1, 3);
    as.addi(1, 1, 12345);
    as.srli(4, 1, 16);
    as.andi(4, 4, 1);
    as.beq(4, "skip");
    as.addi(5, 5, 1);
    as.label("skip");
    as.subi(2, 2, 1);
    as.bgt(2, "loop");
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());

    arch::MemoryImage mem;
    core::SmtCore machine(core::CoreConfig::fourWide(), prog, mem);
    auto res = machine.run(codeBase, quickOpts());

    // The random branch should mispredict a lot.
    EXPECT_GT(res.mispredictions, 400u);
    // And each misprediction should cost on the order of the pipeline
    // depth in cycles.
    EXPECT_GT(res.cycles, res.mispredictions * 8);
}

TEST(CoreBasic, ColdMissesCostMemoryLatency)
{
    // Walk 512 cache lines; every line is a cold miss with a
    // serialized dependence (pointer-chase style via computed addr).
    isa::Assembler as(codeBase);
    as.ldi64(1, dataBase);
    as.ldi(2, 512);
    as.label("loop");
    as.ldq(3, 1, 0);      // cold miss
    as.add(1, 1, 3);      // depends on load (value = stride)
    as.subi(2, 2, 1);
    as.bgt(2, "loop");
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());

    arch::MemoryImage mem;
    // Pseudo-random strides large enough to defeat the stream
    // prefetcher while staying in mapped memory.
    Addr a = dataBase;
    std::uint64_t strides[4] = {832, 1344, 2496, 704};
    for (int i = 0; i < 513; ++i) {
        std::uint64_t s = strides[i % 4];
        mem.writeQ(a, s);
        a += s;
    }

    core::SmtCore machine(core::CoreConfig::fourWide(), prog, mem);
    auto res = machine.run(codeBase, quickOpts());

    EXPECT_GT(res.l1dMissesMain, 400u);
    // Serialized misses: >> 100 cycles each on average is too strict
    // with the prefetcher, but the run must be memory-bound.
    EXPECT_GT(res.cycles, res.l1dMissesMain * 20);
}

TEST(CoreBasic, CallReturnPredictsViaRas)
{
    isa::Assembler as(codeBase);
    as.ldi(2, 500);
    as.label("loop");
    as.call("func");
    as.subi(2, 2, 1);
    as.bgt(2, "loop");
    as.halt();
    as.label("func");
    as.addi(5, 5, 1);
    as.ret();
    isa::Program prog;
    prog.addSection(as.finish());

    arch::MemoryImage mem;
    core::SmtCore machine(core::CoreConfig::fourWide(), prog, mem);
    auto res = machine.run(codeBase, quickOpts());

    EXPECT_EQ(res.mainRetired, 2u + 500u * 5u);  // ldi + loop + halt
    EXPECT_EQ(res.detail.get("return_mispredictions"), 0u);
}

TEST(CoreBasic, EightWideIsFasterOnIlp)
{
    isa::Assembler as(codeBase);
    as.ldi(20, 128);
    as.label("loop");
    for (int i = 0; i < 2; ++i)
        for (int r = 1; r <= 16; ++r)
            as.addi(static_cast<RegIndex>(r),
                    static_cast<RegIndex>(r), 1);
    as.subi(20, 20, 1);
    as.bgt(20, "loop");
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());

    arch::MemoryImage m1, m2;
    core::SmtCore c4(core::CoreConfig::fourWide(), prog, m1);
    core::SmtCore c8(core::CoreConfig::eightWide(), prog, m2);
    auto r4 = c4.run(codeBase, quickOpts());
    auto r8 = c8.run(codeBase, quickOpts());

    EXPECT_LT(r8.cycles * 3, r4.cycles * 2);  // >=1.5x speedup
}

TEST(CoreBasic, DefaultCycleLimitScalesWithWarmup)
{
    // Regression: the limit's slack used to be a fixed 100k cycles
    // regardless of the budget, so a run whose warm-up dwarfed its
    // measured region could hit the limit while still healthy. The
    // slack must scale with warm-up + measure, with a floor for tiny
    // smoke runs.
    const Cycle small = core::defaultCycleLimit(10'000, 0);
    EXPECT_EQ(small, 50 * 10'000 + 100'000)  // floor applies
        << "small runs keep the 100k-cycle slack floor";

    // Same measured region, large warm-up: the limit must grow by at
    // least 50x the added warm-up (the per-instruction budget) plus
    // the proportional slack — not just the per-instruction part.
    const Cycle warm = core::defaultCycleLimit(10'000, 10'000'000);
    const std::uint64_t budget = 10'000 + 10'000'000;
    EXPECT_EQ(warm, 50 * budget + budget / 4);
    EXPECT_GT(warm - small, 50 * std::uint64_t{10'000'000})
        << "warm-up instructions must add more than their bare "
           "50-cycle budget";

    // Symmetry: slack depends on the total budget, not on how it is
    // split between warm-up and measurement.
    EXPECT_EQ(core::defaultCycleLimit(1'000'000, 4'000'000),
              core::defaultCycleLimit(4'000'000, 1'000'000));
}

TEST(CoreBasic, OverflowingBudgetsFailLoudly)
{
    // A wrapped budget would end the run early and call it complete:
    // max + 100 warm-up instructions would retire 99.
    constexpr std::uint64_t maxU64 = ~std::uint64_t{0};
    ScopedThrowErrors throwing;
    EXPECT_THROW(core::defaultCycleLimit(maxU64, 100), SimError);
    // The budget fits, but 50 cycles per instruction do not.
    EXPECT_THROW(core::defaultCycleLimit(maxU64 / 50 + 1, 0), SimError);
    // 50 cycles per instruction fit, the slack on top does not.
    EXPECT_THROW(core::defaultCycleLimit(maxU64 / 50, 0), SimError);

    isa::Assembler as(codeBase);
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());
    arch::MemoryImage mem;
    core::SmtCore machine(core::CoreConfig::fourWide(), prog, mem);
    core::RunOptions o;
    o.maxMainInstructions = maxU64;
    o.warmupInstructions = 100;
    o.maxCycles = 1'000;  // the budget itself must be checked too
    EXPECT_THROW(machine.run(codeBase, o), SimError);
}

TEST(CoreBasic, LongWarmupRunCompletesWithinDefaultLimit)
{
    // The behavioural half of the regression: a run that is almost
    // all warm-up must complete, not die at the cycle limit.
    isa::Assembler as(codeBase);
    as.ldi(1, 0);
    as.label("loop");
    as.addi(1, 1, 1);
    as.br("loop");
    isa::Program prog;
    prog.addSection(as.finish());

    arch::MemoryImage mem;
    core::SmtCore machine(core::CoreConfig::fourWide(), prog, mem);
    core::RunOptions o;
    o.maxMainInstructions = 1'000;
    o.warmupInstructions = 200'000;
    auto res = machine.run(codeBase, o);
    EXPECT_EQ(res.outcome, core::SimOutcome::Completed);
    EXPECT_EQ(res.mainRetired, 1'000u);
}

TEST(CoreBasic, MoreContextsThanTheMaximumAreFatal)
{
    // ThreadId is eight bits, so the per-thread loops cannot count past
    // 255 contexts; the core takes at most core::maxThreads.
    isa::Assembler as(codeBase);
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());
    arch::MemoryImage mem;
    core::CoreConfig cfg = core::CoreConfig::fourWide();

    ScopedThrowErrors throwing;
    cfg.numThreads = 65;
    EXPECT_THROW(core::SmtCore(cfg, prog, mem).run(codeBase, quickOpts()),
                 SimError);
    cfg.numThreads = 0;
    EXPECT_THROW(core::SmtCore(cfg, prog, mem), SimError);

    cfg.numThreads = core::maxThreads;
    core::SmtCore widest(cfg, prog, mem);
    EXPECT_EQ(widest.run(codeBase, quickOpts()).mainRetired, 1u);
}

namespace
{

sim::Workload
vprWorkload()
{
    workloads::Params p;
    p.scale = 80'000;
    return workloads::buildVpr(p);
}

/** A machine whose retirement livelocks on vpr's first store: the
 *  one-set L1D evicts the store's line before it retires, and a write
 *  buffer with no entries refuses it for ever. */
sim::MachineConfig
livelockingMachine()
{
    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.memory.l1dSize = 2 * 64;
    cfg.memory.writeBufEntries = 0;
    return cfg;
}

} // namespace

TEST(Watchdog, FiresOnLivelockWithDiagnosis)
{
    sim::Workload wl = vprWorkload();
    sim::Simulator machine(livelockingMachine());
    sim::RunOptions opts;
    opts.maxMainInstructions = 15'000;
    opts.watchdogCycles = 5'000;
    sim::RunResult r = machine.run(wl, opts, true);

    EXPECT_EQ(r.outcome, sim::SimOutcome::Watchdog);
    EXPECT_LT(r.mainRetired, 15'000u);
    ASSERT_FALSE(r.diagnosis.empty());
    // The diagnosis names the stall duration, the ROB head (the stuck
    // store) and the write buffer that refuses it.
    EXPECT_NE(r.diagnosis.find("retired nothing for 5000 cycles"),
              std::string::npos)
        << r.diagnosis;
    EXPECT_NE(r.diagnosis.find("rob head"), std::string::npos);
    EXPECT_NE(r.diagnosis.find("[stq "), std::string::npos)
        << r.diagnosis;
    EXPECT_NE(r.diagnosis.find("write buffer 0/0, retire_wb_stalls="),
              std::string::npos)
        << r.diagnosis;
}

TEST(Watchdog, DisabledWatchdogFallsThroughToCycleLimit)
{
    sim::Workload wl = vprWorkload();
    sim::Simulator machine(livelockingMachine());
    sim::RunOptions opts;
    opts.maxMainInstructions = 15'000;
    opts.watchdogCycles = 0;
    opts.maxCycles = 30'000;
    sim::RunResult r = machine.run(wl, opts, true);
    EXPECT_EQ(r.outcome, sim::SimOutcome::CycleLimit);
    EXPECT_TRUE(r.diagnosis.empty());
}

TEST(Watchdog, CleanRunCompletesUntouched)
{
    sim::Workload wl = vprWorkload();
    sim::Simulator machine(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.maxMainInstructions = 15'000;
    opts.watchdogCycles = 5'000;
    sim::RunResult r = machine.run(wl, opts, true);
    EXPECT_EQ(r.outcome, sim::SimOutcome::Completed);
    EXPECT_GE(r.mainRetired + 1, 15'000u);
}

TEST(CycleLimit, TinyLimitYieldsCycleLimitOutcome)
{
    sim::Workload wl = vprWorkload();
    sim::Simulator machine(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.maxMainInstructions = 1'000'000;  // unreachable
    opts.maxCycles = 2'000;
    sim::RunResult r = machine.run(wl, opts, true);
    EXPECT_EQ(r.outcome, sim::SimOutcome::CycleLimit);
    EXPECT_LE(r.cycles, 2'000u);
}

TEST(Outcome, NamesAreStable)
{
    EXPECT_STREQ(sim::outcomeName(sim::SimOutcome::Completed),
                 "completed");
    EXPECT_STREQ(sim::outcomeName(sim::SimOutcome::CycleLimit),
                 "cycle_limit");
    EXPECT_STREQ(sim::outcomeName(sim::SimOutcome::Watchdog),
                 "watchdog");
}
