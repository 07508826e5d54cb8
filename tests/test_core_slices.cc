/**
 * @file
 * Core-level slice-execution tests (Section 4): forking and register
 * communication, the ignored-fork rule, fork-squash on wrong paths,
 * slice termination by iteration limit / fault / SliceEnd, the
 * prefetch effect through the shared L1D, and end-to-end prediction
 * delivery through the correlator.
 */

#include <gtest/gtest.h>

#include "arch/memimg.hh"
#include "core/smt_core.hh"
#include "isa/assembler.hh"
#include "isa/program.hh"

using namespace specslice;
using namespace specslice::isa;

namespace
{

constexpr Addr codeBase = 0x10000;
constexpr Addr sliceBase = 0x8000;
constexpr Addr dataBase = 0x100000;

core::RunOptions
quickOpts(std::uint64_t n = 200'000)
{
    core::RunOptions o;
    o.maxMainInstructions = n;
    return o;
}

/**
 * A mini-workload: a loop that loads a pointer-chased value and
 * branches on it. The slice mirrors the chase one element ahead.
 * Returns {program, descriptor}.
 */
struct Mini
{
    Program prog;
    slice::SliceDescriptor sd;
    Addr entry;
};

Mini
makeChase(unsigned iterations, unsigned max_iters = 64)
{
    Assembler as(codeBase);
    as.label("start");
    as.ldi64(30, dataBase);
    as.ldi(2, static_cast<std::int32_t>(iterations));
    as.ldq(21, 30, 0);             // head pointer (live-in)
    as.label("outer");
    as.label("work_fn");           // fork PC
    // Filler so the slice has lead time.
    for (int i = 0; i < 10; ++i)
        as.addi(9, 9, 1);
    as.ldq(15, 21, 8);             // node->val      (problem load)
    as.andi(16, 15, 1);
    as.label("problem_branch");
    as.beq(16, "skip");            // problem branch
    as.addi(25, 25, 1);
    as.label("skip");
    as.label("tail");              // loop kill
    as.ldq(21, 21, 0);             // advance
    as.subi(2, 2, 1);
    as.label("region_end");        // slice kill
    as.bgt(2, "outer");
    as.halt();
    Mini m;
    m.prog.addSection(as.finish());
    auto sym = as.symbols();

    Assembler sl(sliceBase);
    sl.label("slice");
    sl.ldq(15, 21, 8);
    sl.label("slice_pgi");
    sl.andi(regZero, 15, 1);
    sl.ldq(21, 21, 0);
    sl.label("slice_backedge");
    sl.br("slice");
    m.prog.addSection(sl.finish());
    auto ssym = sl.symbols();
    m.prog.addSymbols(sym);
    m.prog.addSymbols(ssym);
    m.entry = sym.at("start");

    m.sd.name = "mini";
    m.sd.forkPc = sym.at("work_fn");
    m.sd.slicePc = ssym.at("slice");
    m.sd.liveIns = {21};
    m.sd.maxLoopIters = max_iters;
    m.sd.loopBackEdgePc = ssym.at("slice_backedge");
    m.sd.staticSize = 4;
    slice::PgiSpec pgi;
    pgi.sliceInstPc = ssym.at("slice_pgi");
    pgi.problemBranchPc = sym.at("problem_branch");
    pgi.invert = true;  // beq taken iff (val & 1) == 0
    pgi.loopKillPc = sym.at("tail");
    pgi.sliceKillPc = sym.at("region_end");
    m.sd.pgis = {pgi};
    return m;
}

/** Scattered circular list with pseudo-random values. */
void
initChase(arch::MemoryImage &mem, unsigned nodes,
          std::uint64_t span = 1u << 20)
{
    Addr first = dataBase + 0x1000;
    std::uint64_t x = 88172645463325252ull;
    Addr prev = first;
    mem.writeQ(dataBase, first);
    for (unsigned i = 1; i <= nodes; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Addr node = (i == nodes)
                        ? first
                        : dataBase + 0x1000 + (x % span) / 64 * 64;
        if (node == prev)
            node += 64;
        mem.writeQ(prev + 8, x >> 32);
        mem.writeQ(prev + 0, node);
        prev = node;
    }
}

} // namespace

TEST(CoreSlices, ForksAndGeneratesPredictions)
{
    Mini m = makeChase(2000);
    arch::MemoryImage mem;
    initChase(mem, 4096);
    core::CoreConfig cfg = core::CoreConfig::fourWide();
    core::SmtCore machine(cfg, m.prog, mem);
    machine.loadSlice(m.sd);
    auto res = machine.run(m.entry, quickOpts());

    EXPECT_GT(res.forks, 100u);
    EXPECT_GT(res.predictionsGenerated, 100u);
    EXPECT_GT(res.correlatorUsed + res.latePredictions, 100u);
    // The slice mirrors the main computation exactly: overrides are
    // essentially always right.
    EXPECT_LE(res.correlatorWrong * 100, res.correlatorUsed * 2 + 100);
}

TEST(CoreSlices, SingleContextIgnoresForks)
{
    Mini m = makeChase(500);
    arch::MemoryImage mem;
    initChase(mem, 1024);
    core::CoreConfig cfg = core::CoreConfig::fourWide();
    cfg.numThreads = 1;  // no idle helper contexts at all
    core::SmtCore machine(cfg, m.prog, mem);
    machine.loadSlice(m.sd);
    auto res = machine.run(m.entry, quickOpts());
    EXPECT_EQ(res.forks, 0u);
    EXPECT_GT(res.forksIgnored, 100u);
}

TEST(CoreSlices, MaxIterationCountBoundsSliceLength)
{
    Mini m = makeChase(400, /*max_iters=*/3);
    arch::MemoryImage mem;
    initChase(mem, 1024);
    core::CoreConfig cfg = core::CoreConfig::fourWide();
    core::SmtCore machine(cfg, m.prog, mem);
    machine.loadSlice(m.sd);
    auto res = machine.run(m.entry, quickOpts());
    ASSERT_GT(res.forks, 50u);
    // 4 instructions per iteration, at most 3 iterations (runaway
    // protection) — slices may be cut shorter by dead-entry stops.
    EXPECT_LE(res.sliceFetched, res.forks * (3 * 4 + 2));
}

TEST(CoreSlices, NullDereferenceTerminatesSlice)
{
    // Non-circular chase: the last node's next is null; slices that
    // run past the end dereference null and must terminate instead of
    // running away ("linked list traversals will automatically
    // terminate", Section 3.2).
    Mini m = makeChase(40, 64);
    arch::MemoryImage mem;
    // Short list ending in null.
    Addr first = dataBase + 0x1000;
    mem.writeQ(dataBase, first);
    Addr prev = first;
    for (int i = 0; i < 8; ++i) {
        Addr node = first + (i + 1) * 128;
        mem.writeQ(prev + 8, i * 3 + 1);
        mem.writeQ(prev + 0, i == 7 ? 0 : node);
        prev = node;
    }
    // Main walks exactly 8 nodes (iterations = 8) then halts.
    Mini m8 = makeChase(8, 64);
    arch::MemoryImage mem8;
    mem8.writeQ(dataBase, first);
    prev = first;
    for (int i = 0; i < 9; ++i) {
        Addr node = first + (i + 1) * 128;
        mem8.writeQ(prev + 8, i * 3 + 1);
        mem8.writeQ(prev + 0, i == 8 ? 0 : node);
        prev = node;
    }
    core::CoreConfig cfg = core::CoreConfig::fourWide();
    core::SmtCore machine(cfg, m8.prog, mem8);
    machine.loadSlice(m8.sd);
    auto res = machine.run(m8.entry, quickOpts());
    EXPECT_GT(res.detail.get("slice_faults"), 0u);
    // And the machine still completed the program.
    EXPECT_GT(res.mainRetired, 8u);
}

TEST(CoreSlices, RegisterCommunicationCopiesLiveIns)
{
    // The slice's predictions are computed from the live-in pointer;
    // if the copy were broken the slice would fault immediately and
    // generate nothing.
    Mini m = makeChase(1000);
    arch::MemoryImage mem;
    initChase(mem, 2048);
    core::CoreConfig cfg = core::CoreConfig::fourWide();
    core::SmtCore machine(cfg, m.prog, mem);
    machine.loadSlice(m.sd);
    auto res = machine.run(m.entry, quickOpts());
    EXPECT_EQ(res.detail.get("slice_faults"), 0u);
    EXPECT_GT(res.predictionsGenerated, res.forks / 2);
}

TEST(CoreSlices, SlicePrefetchCoversMainMisses)
{
    Mini m = makeChase(3000);
    arch::MemoryImage mem, mem2;
    initChase(mem, 16384, 8u << 20);   // 8 MB footprint: misses
    initChase(mem2, 16384, 8u << 20);

    core::CoreConfig cfg = core::CoreConfig::fourWide();
    core::SmtCore base(cfg, m.prog, mem);
    auto b = base.run(m.entry, quickOpts());

    core::SmtCore sliced(cfg, m.prog, mem2);
    sliced.loadSlice(m.sd);
    auto s = sliced.run(m.entry, quickOpts());

    EXPECT_GT(b.l1dMissesMain, 500u);
    EXPECT_GT(s.coveredMisses + s.detail.get("delayed_hits"), 200u);
    EXPECT_LT(s.cycles, b.cycles);  // net win on a chase workload
}

TEST(CoreSlices, ForkOnWrongPathIsSquashed)
{
    // Put the fork point behind an unpredictable branch: forks taken
    // on mispredicted paths must be squashed.
    Assembler as(codeBase);
    as.label("start");
    as.ldi64(30, dataBase);
    as.ldi(2, 3000);
    as.label("loop");
    as.ldq(5, 30, 0);          // xorshift state
    as.srli(6, 5, 12);
    as.xor_(5, 5, 6);
    as.slli(6, 5, 25);
    as.xor_(5, 5, 6);
    as.srli(6, 5, 27);
    as.xor_(5, 5, 6);
    as.stq(5, 30, 0);
    as.andi(7, 5, 1);
    as.beq(7, "no_fork");      // unbiased guard
    as.label("fork_pt");       // fork here: often speculative
    as.addi(9, 9, 1);
    as.label("no_fork");
    as.subi(2, 2, 1);
    as.label("region_end");
    as.bgt(2, "loop");
    as.halt();
    Program prog;
    prog.addSection(as.finish());
    auto sym = as.symbols();

    Assembler sl(sliceBase);
    sl.label("slice");
    sl.addi(3, 3, 1);
    sl.label("slice_pgi");
    sl.andi(regZero, 3, 1);
    sl.sliceEnd();
    prog.addSection(sl.finish());
    auto ssym = sl.symbols();

    slice::SliceDescriptor sd;
    sd.name = "guarded";
    sd.forkPc = sym.at("fork_pt");
    sd.slicePc = ssym.at("slice");
    sd.staticSize = 3;
    slice::PgiSpec pgi;
    pgi.sliceInstPc = ssym.at("slice_pgi");
    pgi.problemBranchPc = sym.at("region_end");
    pgi.sliceKillPc = sym.at("region_end");
    sd.pgis = {pgi};

    arch::MemoryImage mem;
    mem.writeQ(dataBase, 0x123456789ull);
    core::SmtCore machine(core::CoreConfig::fourWide(), prog, mem);
    machine.loadSlice(sd);
    auto res = machine.run(sym.at("start"), quickOpts());

    EXPECT_GT(res.forks, 100u);
    EXPECT_GT(res.forksSquashed, 20u)
        << "speculative forks must be squashed with their fork points";
}

TEST(CoreSlices, SmtRunsConcurrently)
{
    // With slices on, total fetched (main + slice) exceeds main-only,
    // and both threads interleave within the same cycles.
    Mini m = makeChase(2000);
    arch::MemoryImage mem;
    initChase(mem, 8192);
    core::SmtCore machine(core::CoreConfig::fourWide(), m.prog, mem);
    machine.loadSlice(m.sd);
    auto res = machine.run(m.entry, quickOpts());
    EXPECT_GT(res.sliceFetched, 0u);
    EXPECT_GT(res.sliceRetired, 0u);
    // Slice instructions never write architected memory: the chase
    // values are unchanged (spot check: head pointer intact).
    EXPECT_EQ(mem.readQ(dataBase), dataBase + 0x1000);
}
