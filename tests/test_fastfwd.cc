/**
 * @file
 * Fast-forward engine tests: the pre-decoded interpreter must be
 * bit-identical to the reference tracer on every workload (count, PC,
 * registers, memory contents), report the same stop reasons, honor
 * absolute positioning (advanceTo), keep sticky stops sticky, and
 * record branch/memory warmth for region warm-up replay.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "arch/fastfwd.hh"
#include "arch/memimg.hh"
#include "arch/tracer.hh"
#include "isa/assembler.hh"
#include "isa/program.hh"
#include "sim/workload.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

constexpr Addr codeBase = 0x10000;

workloads::Params
smallParams()
{
    workloads::Params p;
    p.scale = 200'000;
    return p;
}

/** The tracer-side reference state after max_insts instructions. */
struct Reference
{
    arch::TraceResult result;
    arch::RegFile regs;
    arch::MemoryImage mem;
};

Reference
traceReference(const sim::Workload &wl, std::uint64_t max_insts)
{
    Reference ref;
    if (wl.initMemory)
        wl.initMemory(ref.mem);
    ref.result = arch::trace(wl.program, wl.entry, ref.regs, ref.mem,
                             max_insts,
                             [](const arch::TraceEvent &) {});
    return ref;
}

} // namespace

class FastForwardSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FastForwardSuite, BitIdenticalToTracer)
{
    auto wl = workloads::buildWorkload(GetParam(), smallParams());
    constexpr std::uint64_t budget = 150'000;
    Reference ref = traceReference(wl, budget);

    arch::FastForward ff(wl.program);
    ff.reset(wl.entry);
    if (wl.initMemory)
        wl.initMemory(ff.mem());
    arch::FfStop stop = ff.advance(budget);

    EXPECT_EQ(stop, ref.result.reason);
    EXPECT_EQ(ff.executed(), ref.result.count);
    EXPECT_EQ(ff.pc(), ref.result.finalPc);
    for (unsigned r = 0; r < isa::numRegs; ++r)
        ASSERT_EQ(ff.regs().read(static_cast<RegIndex>(r)),
                  ref.regs.read(static_cast<RegIndex>(r)))
            << "register " << r << " diverged on " << GetParam();
    EXPECT_EQ(ff.mem().contentHash(), ref.mem.contentHash())
        << "memory diverged on " << GetParam();
}

TEST_P(FastForwardSuite, ChunkedAdvanceMatchesOneShot)
{
    // Advancing in uneven chunks must land on the identical state:
    // the budget boundary is not allowed to influence execution.
    auto wl = workloads::buildWorkload(GetParam(), smallParams());
    constexpr std::uint64_t budget = 60'000;

    arch::FastForward oneshot(wl.program);
    oneshot.reset(wl.entry);
    if (wl.initMemory)
        wl.initMemory(oneshot.mem());
    oneshot.advance(budget);

    arch::FastForward chunked(wl.program);
    chunked.reset(wl.entry);
    if (wl.initMemory)
        wl.initMemory(chunked.mem());
    for (std::uint64_t step : {1ull, 7ull, 1000ull, 58'992ull})
        chunked.advance(step);

    EXPECT_EQ(chunked.executed(), oneshot.executed());
    EXPECT_EQ(chunked.pc(), oneshot.pc());
    EXPECT_EQ(chunked.mem().contentHash(), oneshot.mem().contentHash());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, FastForwardSuite,
                         ::testing::Values("bzip2", "gcc", "mcf",
                                           "twolf", "vortex", "vpr"));

TEST(FastForwardTest, AdvanceToIsAbsolute)
{
    auto wl = workloads::buildWorkload("vpr", smallParams());
    arch::FastForward ff(wl.program);
    ff.reset(wl.entry);
    if (wl.initMemory)
        wl.initMemory(ff.mem());

    ff.advanceTo(10'000);
    EXPECT_EQ(ff.executed(), 10'000u);
    // Already past: no-op, never rewinds.
    ff.advanceTo(5'000);
    EXPECT_EQ(ff.executed(), 10'000u);
    ff.advanceTo(25'000);
    EXPECT_EQ(ff.executed(), 25'000u);
}

TEST(FastForwardTest, HaltIsSticky)
{
    isa::Assembler as(codeBase);
    as.ldi(1, 3);
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());

    arch::FastForward ff(prog);
    ff.reset(codeBase);
    EXPECT_EQ(ff.advance(100), arch::FfStop::Halted);
    EXPECT_EQ(ff.executed(), 2u);
    EXPECT_FALSE(ff.runnable());
    // Further advances return the same stop without executing.
    EXPECT_EQ(ff.advance(100), arch::FfStop::Halted);
    EXPECT_EQ(ff.executed(), 2u);
    EXPECT_EQ(ff.advanceTo(50), arch::FfStop::Halted);
    EXPECT_EQ(ff.executed(), 2u);
}

TEST(FastForwardTest, NullLoadFaults)
{
    isa::Assembler as(codeBase);
    as.ldi(1, 0);
    as.ldq(2, 1, 0);  // load from the null page
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());

    arch::FastForward ff(prog);
    ff.reset(codeBase);
    EXPECT_EQ(ff.advance(100), arch::FfStop::Fault);
    EXPECT_EQ(ff.pc(), codeBase + isa::instBytes)
        << "fault must report the faulting instruction's PC";
    EXPECT_FALSE(ff.runnable());
}

// An access whose bytes run past 2^64 would wrap onto the null page:
// it faults before it maps a page, and a checkpoint taken there still
// loads.
TEST(FastForwardTest, WrappingStoreFaults)
{
    isa::Assembler as(codeBase);
    as.ldi64(1, 0xfffffffffffffffc);
    as.stq(2, 1, 0);
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());

    arch::FastForward ff(prog);
    ff.reset(codeBase);
    ASSERT_EQ(ff.advance(100), arch::FfStop::Fault);
    const Addr store_pc = ff.pc();
    EXPECT_TRUE(ff.mem().pageNumbers().empty());

    std::stringstream ss;
    ASSERT_TRUE(arch::saveCheckpoint(ff.makeCheckpoint(), ss));
    std::string err;
    std::optional<arch::Checkpoint> ckpt = arch::loadCheckpoint(ss, err);
    ASSERT_TRUE(ckpt.has_value()) << err;
    arch::FastForward restored(prog);
    restored.restore(std::move(*ckpt));
    EXPECT_EQ(restored.pc(), store_pc);
    EXPECT_TRUE(restored.mem().pageNumbers().empty());
}

// ExecFixture.DivOverflowWrapsToMin and CvtFIOutOfRangeGivesMin,
// through the fast-forward handlers.
TEST(FastForwardTest, DivOverflowAndOutOfRangeCvtFIAreDefined)
{
    constexpr std::uint64_t int64Min = std::uint64_t{1} << 63;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::pair<double, std::uint64_t> cvts[] = {
        {nan, int64Min},    {-nan, int64Min},   {1e300, int64Min},
        {-1e300, int64Min}, {inf, int64Min},    {-inf, int64Min},
        {0x1p63, int64Min}, {-0x1p63, int64Min},
        {0x1p63 - 1024, 0x7ffffffffffffc00},
        {-1.9, ~std::uint64_t{0}}, {1.9, 1}, {-0.0, 0},
    };
    isa::Assembler as(codeBase);
    as.ldi64(1, int64Min);
    as.ldi(2, -1);
    as.div(3, 1, 2);
    RegIndex r = 4;
    for (const auto &[in, want] : cvts) {
        as.ldi64(r, std::bit_cast<std::uint64_t>(in));
        as.cvtfi(r, r);
        ++r;
    }
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());

    arch::FastForward ff(prog);
    ff.reset(codeBase);
    ASSERT_EQ(ff.advance(1000), arch::FfStop::Halted);
    EXPECT_EQ(ff.regs().read(3), int64Min);
    r = 4;
    for (const auto &[in, want] : cvts)
        EXPECT_EQ(ff.regs().read(r++), want) << in;
}

TEST(FastForwardTest, UnmappedPcStops)
{
    isa::Assembler as(codeBase);
    as.ldi(1, 1);
    // Falls off the end of the section (no halt).
    isa::Program prog;
    prog.addSection(as.finish());

    arch::FastForward ff(prog);
    ff.reset(codeBase);
    EXPECT_EQ(ff.advance(100), arch::FfStop::UnmappedPc);
    EXPECT_EQ(ff.executed(), 1u);
}

TEST(FastForwardTest, StopNamesAreStable)
{
    EXPECT_STREQ(arch::ffStopName(arch::FfStop::Budget), "budget");
    EXPECT_STREQ(arch::ffStopName(arch::FfStop::Halted), "halted");
    EXPECT_STREQ(arch::ffStopName(arch::FfStop::Fault), "fault");
    EXPECT_STREQ(arch::ffStopName(arch::FfStop::UnmappedPc),
                 "unmapped_pc");
}

TEST(FastForwardTest, RecordsBranchAndMemoryWarmth)
{
    auto wl = workloads::buildWorkload("twolf", smallParams());
    arch::FastForward ff(wl.program);
    ff.reset(wl.entry);
    if (wl.initMemory)
        wl.initMemory(ff.mem());
    ff.advance(50'000);

    auto branches = ff.warmth();
    EXPECT_FALSE(branches.empty());
    EXPECT_LE(branches.size(), arch::FastForward::warmthDepth);

    auto mem = ff.memWarmth();
    EXPECT_FALSE(mem.empty());
    EXPECT_LE(mem.size(), arch::FastForward::memWarmthDepth);
    bool saw_load = false, saw_store = false;
    for (const auto &m : mem) {
        EXPECT_NE(m.addr, 0u) << "null accesses cannot be warmth";
        (m.isStore ? saw_store : saw_load) = true;
    }
    EXPECT_TRUE(saw_load);
    EXPECT_TRUE(saw_store);

    // reset() must drop both logs.
    ff.reset(wl.entry);
    EXPECT_TRUE(ff.warmth().empty());
    EXPECT_TRUE(ff.memWarmth().empty());
}

TEST(FastForwardTest, RecordsInstructionLineWarmth)
{
    auto wl = workloads::buildWorkload("twolf", smallParams());
    arch::FastForward ff(wl.program);
    ff.reset(wl.entry);
    if (wl.initMemory)
        wl.initMemory(ff.mem());
    ff.advance(50'000);

    // The instruction-line ring holds the most recent fetch PCs —
    // non-empty, bounded, and every entry decodes (it was executed).
    auto lines = ff.instWarmth();
    EXPECT_FALSE(lines.empty());
    EXPECT_LE(lines.size(), arch::FastForward::instWarmthDepth);
    for (Addr pc : lines)
        EXPECT_NE(pc, 0u);
    // The stop PC's neighborhood was executed most recently, so the
    // final executed PC must be among the recorded lines.
    // (ff.pc() is the NEXT pc; the ring holds executed ones, of which
    // there were 50k — far more than the ring depth — so the ring is
    // exactly full.)
    EXPECT_EQ(lines.size(), arch::FastForward::instWarmthDepth);

    // Determinism: a second engine over the same program and budget
    // records the identical sequence.
    arch::FastForward again(wl.program);
    again.reset(wl.entry);
    if (wl.initMemory)
        wl.initMemory(again.mem());
    again.advance(50'000);
    EXPECT_EQ(again.instWarmth(), lines);

    // reset() drops the ring like the other warmth logs.
    ff.reset(wl.entry);
    EXPECT_TRUE(ff.instWarmth().empty());
}
