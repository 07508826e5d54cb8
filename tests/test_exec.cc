/**
 * @file
 * Functional-executor tests: the architectural semantics of every
 * opcode class, fault behaviour, control flow, and the slice
 * no-stores rule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "arch/exec.hh"
#include "common/rng.hh"

using namespace specslice;
using namespace specslice::isa;
using arch::ExecResult;

namespace
{

constexpr Addr pc0 = 0x10000;

struct ExecFixture : ::testing::Test
{
    arch::RegFile regs;
    arch::MemoryImage mem;

    ExecResult
    run(Instruction i, bool allow_stores = true)
    {
        return arch::execute(i, pc0, regs, mem, allow_stores);
    }

    static Instruction
    rform(Opcode op, RegIndex rc, RegIndex ra, RegIndex rb)
    {
        Instruction i;
        i.op = op;
        i.rc = rc;
        i.ra = ra;
        i.rb = rb;
        return i;
    }

    static Instruction
    iform(Opcode op, RegIndex rc, RegIndex ra, std::int32_t imm)
    {
        Instruction i;
        i.op = op;
        i.rc = rc;
        i.ra = ra;
        i.imm = imm;
        return i;
    }
};

} // namespace

TEST_F(ExecFixture, IntegerAlu)
{
    regs.write(1, 7);
    regs.write(2, 3);
    run(rform(Opcode::Add, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 10u);
    run(rform(Opcode::Sub, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 4u);
    run(rform(Opcode::Mul, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 21u);
    run(rform(Opcode::Div, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 2u);
    run(rform(Opcode::Xor, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 4u);
}

TEST_F(ExecFixture, DivByZeroYieldsZeroNotFault)
{
    regs.write(1, 7);
    regs.write(2, 0);
    auto r = run(rform(Opcode::Div, 3, 1, 2));
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(regs.read(3), 0u);
}

TEST_F(ExecFixture, DivOverflowWrapsToMin)
{
    constexpr std::uint64_t int64Min = std::uint64_t{1} << 63;
    regs.write(1, int64Min);
    regs.write(2, ~std::uint64_t{0});
    auto r = run(rform(Opcode::Div, 3, 1, 2));  // INT64_MIN / -1
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(regs.read(3), int64Min);
    regs.write(1, static_cast<std::uint64_t>(-7));
    run(rform(Opcode::Div, 3, 1, 2));
    EXPECT_EQ(static_cast<std::int64_t>(regs.read(3)), 7);
    regs.write(2, 2);
    run(rform(Opcode::Div, 3, 1, 2));  // truncates toward zero
    EXPECT_EQ(static_cast<std::int64_t>(regs.read(3)), -3);
}

TEST_F(ExecFixture, CvtFIOutOfRangeGivesMin)
{
    constexpr std::uint64_t int64Min = std::uint64_t{1} << 63;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::pair<double, std::uint64_t> cases[] = {
        {nan, int64Min},    {-nan, int64Min},   {1e300, int64Min},
        {-1e300, int64Min}, {inf, int64Min},    {-inf, int64Min},
        {0x1p63, int64Min}, {-0x1p63, int64Min},
        {0x1p63 - 1024, 0x7ffffffffffffc00},
        {-1.9, ~std::uint64_t{0}}, {1.9, 1}, {-0.0, 0},
    };
    for (const auto &[in, want] : cases) {
        regs.writeF(1, in);
        auto r = run(rform(Opcode::CvtFI, 2, 1, regZero));
        EXPECT_FALSE(r.fault);
        EXPECT_EQ(regs.read(2), want) << in;
    }
}

TEST_F(ExecFixture, SignedArithmeticAndShifts)
{
    regs.write(1, static_cast<std::uint64_t>(-8));
    run(iform(Opcode::SraI, 3, 1, 1));
    EXPECT_EQ(static_cast<std::int64_t>(regs.read(3)), -4);
    run(iform(Opcode::SrlI, 3, 1, 60));
    EXPECT_EQ(regs.read(3), 0xfu);
    regs.write(2, 2);
    run(rform(Opcode::CmpLt, 3, 1, 2));  // -8 < 2 signed
    EXPECT_EQ(regs.read(3), 1u);
    run(rform(Opcode::CmpUlt, 3, 1, 2));  // huge unsigned, not <
    EXPECT_EQ(regs.read(3), 0u);
}

TEST_F(ExecFixture, ScaledAdds)
{
    regs.write(1, 5);
    regs.write(2, 100);
    run(rform(Opcode::S4Add, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 120u);
    run(rform(Opcode::S8Add, 3, 1, 2));
    EXPECT_EQ(regs.read(3), 140u);
}

TEST_F(ExecFixture, ConditionalMoves)
{
    regs.write(1, 0);
    regs.write(2, 42);
    regs.write(3, 7);
    run(rform(Opcode::CmovEq, 3, 1, 2));  // ra == 0: move
    EXPECT_EQ(regs.read(3), 42u);
    regs.write(3, 7);
    run(rform(Opcode::CmovNe, 3, 1, 2));  // ra == 0: keep
    EXPECT_EQ(regs.read(3), 7u);
    regs.write(1, static_cast<std::uint64_t>(-1));
    run(rform(Opcode::CmovLt, 3, 1, 2));  // ra < 0: move
    EXPECT_EQ(regs.read(3), 42u);
}

TEST_F(ExecFixture, ZeroRegisterIsImmutable)
{
    regs.write(1, 5);
    run(iform(Opcode::AddI, regZero, 1, 10));
    EXPECT_EQ(regs.read(regZero), 0u);
    // But the result value is still reported (PGIs rely on this).
    auto r = run(iform(Opcode::AddI, regZero, 1, 10));
    EXPECT_TRUE(r.wroteReg);
    EXPECT_EQ(r.value, 15u);
}

TEST_F(ExecFixture, FloatingPoint)
{
    regs.writeF(1, 2.5);
    regs.writeF(2, 1.25);
    run(rform(Opcode::FAdd, 3, 1, 2));
    EXPECT_DOUBLE_EQ(regs.readF(3), 3.75);
    run(rform(Opcode::FMul, 3, 1, 2));
    EXPECT_DOUBLE_EQ(regs.readF(3), 3.125);
    run(rform(Opcode::FCmpLt, 3, 2, 1));
    EXPECT_EQ(regs.read(3), 1u);
    run(rform(Opcode::FCmpLe, 3, 1, 1));
    EXPECT_EQ(regs.read(3), 1u);
    regs.write(4, static_cast<std::uint64_t>(-3));
    run(rform(Opcode::CvtIF, 5, 4, regZero));
    EXPECT_DOUBLE_EQ(regs.readF(5), -3.0);
    run(rform(Opcode::CvtFI, 6, 5, regZero));
    EXPECT_EQ(static_cast<std::int64_t>(regs.read(6)), -3);
}

// A NaN result is the first NaN operand, quieted, whatever order the
// compiler gives a commutative operation's operands; an invalid
// operation on two numbers gives the default NaN.
TEST_F(ExecFixture, FpNaNResultsAreDefined)
{
    constexpr std::uint64_t quietA = 0xfff8000000000123;
    constexpr std::uint64_t signallingB = 0x7ff0000000000456;
    constexpr std::uint64_t quietB = signallingB | (std::uint64_t{1} << 51);
    constexpr std::uint64_t defaultNaN = 0xfff8000000000000;
    regs.write(1, quietA);
    regs.write(2, signallingB);
    regs.writeF(3, 1.0);
    regs.writeF(4, std::numeric_limits<double>::infinity());
    const struct
    {
        Opcode op;
        RegIndex ra, rb;
        std::uint64_t want;
    } cases[] = {
        {Opcode::FAdd, 1, 2, quietA},
        {Opcode::FAdd, 2, 1, quietB},
        {Opcode::FMul, 2, 1, quietB},
        {Opcode::FMul, 1, 2, quietA},
        {Opcode::FSub, 3, 2, quietB},
        {Opcode::FAdd, 2, 3, quietB},
        {Opcode::FSub, 4, 4, defaultNaN},
        {Opcode::FMul, 4, regZero, defaultNaN},  // inf * 0
    };
    for (const auto &c : cases) {
        run(rform(c.op, 5, c.ra, c.rb));
        EXPECT_EQ(regs.read(5), c.want)
            << opTraits(c.op).mnemonic << " r" << int{c.ra} << ", r"
            << int{c.rb};
    }
}

TEST_F(ExecFixture, LoadsAndStores)
{
    mem.writeQ(0x20000, 0x1122334455667788ull);
    regs.write(1, 0x20000);

    Instruction ld;
    ld.op = Opcode::Ldq;
    ld.rc = 2;
    ld.rb = 1;
    ld.imm = 0;
    auto r = run(ld);
    EXPECT_EQ(regs.read(2), 0x1122334455667788ull);
    EXPECT_EQ(r.memAddr, 0x20000u);

    ld.op = Opcode::Ldl;  // sign-extended 32-bit
    mem.writeL(0x20008, 0x80000001u);
    ld.imm = 8;
    run(ld);
    EXPECT_EQ(static_cast<std::int64_t>(regs.read(2)),
              static_cast<std::int32_t>(0x80000001u));

    ld.op = Opcode::Ldbu;
    run(ld);
    EXPECT_EQ(regs.read(2), 0x01u);

    Instruction st;
    st.op = Opcode::Stq;
    st.ra = 2;
    st.rb = 1;
    st.imm = 16;
    regs.write(2, 99);
    run(st);
    EXPECT_EQ(mem.readQ(0x20010), 99u);
}

TEST_F(ExecFixture, NullPageFaults)
{
    regs.write(1, 8);  // inside the null page
    Instruction ld;
    ld.op = Opcode::Ldq;
    ld.rc = 2;
    ld.rb = 1;
    regs.write(2, 123);
    auto r = run(ld);
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(regs.read(2), 123u);  // destination untouched
}

// An access faults when any of its bytes lies past 2^64, where it
// would wrap onto the null page; it maps no page.
TEST_F(ExecFixture, WrappingAccessesFault)
{
    regs.write(1, 0xfffffffffffffffc);
    regs.write(2, 0x1122334455667788);
    Instruction st;
    st.op = Opcode::Stq;
    st.ra = 2;
    st.rb = 1;
    EXPECT_TRUE(run(st).fault);
    EXPECT_TRUE(mem.pageNumbers().empty());

    Instruction ld;
    ld.op = Opcode::Ldq;
    ld.rc = 3;
    ld.rb = 1;
    regs.write(3, 123);
    EXPECT_TRUE(run(ld).fault);
    EXPECT_EQ(regs.read(3), 123u);

    // The last four bytes of the address space are a valid ldl.
    ld.op = Opcode::Ldl;
    EXPECT_FALSE(run(ld).fault);
    EXPECT_EQ(regs.read(3), 0u);
    st.op = Opcode::Stb;
    st.imm = 3;
    EXPECT_FALSE(run(st).fault);
    EXPECT_EQ(mem.pageNumbers(),
              std::vector<Addr>{0xfffffffffffffffc >>
                                arch::MemoryImage::pageShift});
}

TEST_F(ExecFixture, SliceStoresFault)
{
    regs.write(1, 0x20000);
    Instruction st;
    st.op = Opcode::Stq;
    st.ra = 2;
    st.rb = 1;
    auto r = run(st, /*allow_stores=*/false);
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(mem.readQ(0x20000), 0u);
}

TEST_F(ExecFixture, ConditionalBranchDirections)
{
    Instruction b;
    b.op = Opcode::Bgt;
    b.ra = 1;
    b.target = 0x12000;

    regs.write(1, 5);
    auto r = run(b);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPc, 0x12000u);

    regs.write(1, 0);
    r = run(b);
    EXPECT_FALSE(r.taken);
    EXPECT_EQ(r.nextPc, pc0 + instBytes);

    b.op = Opcode::Ble;
    r = run(b);
    EXPECT_TRUE(r.taken);

    b.op = Opcode::Blt;
    regs.write(1, static_cast<std::uint64_t>(-1));
    r = run(b);
    EXPECT_TRUE(r.taken);
}

TEST_F(ExecFixture, CallsAndReturns)
{
    Instruction call;
    call.op = Opcode::Call;
    call.rc = regLink;
    call.target = 0x14000;
    auto r = run(call);
    EXPECT_EQ(r.nextPc, 0x14000u);
    EXPECT_EQ(regs.read(regLink), pc0 + instBytes);

    Instruction ret;
    ret.op = Opcode::Ret;
    ret.ra = regLink;
    r = run(ret);
    EXPECT_EQ(r.nextPc, pc0 + instBytes);

    Instruction callr;
    callr.op = Opcode::CallR;
    callr.rb = 5;
    callr.rc = regLink;
    regs.write(5, 0x18000);
    r = run(callr);
    EXPECT_EQ(r.nextPc, 0x18000u);
    EXPECT_EQ(regs.read(regLink), pc0 + instBytes);

    Instruction jmp;
    jmp.op = Opcode::Jmp;
    jmp.ra = 5;
    r = run(jmp);
    EXPECT_EQ(r.nextPc, 0x18000u);
}

TEST_F(ExecFixture, HaltAndSliceEnd)
{
    Instruction h;
    h.op = Opcode::Halt;
    EXPECT_TRUE(run(h).halted);
    Instruction s;
    s.op = Opcode::SliceEnd;
    EXPECT_TRUE(run(s).sliceEnded);
}

TEST(MemImgTest, LittleEndianAndSparse)
{
    arch::MemoryImage mem;
    mem.writeQ(0x5000, 0x0807060504030201ull);
    EXPECT_EQ(mem.readB(0x5000), 0x01u);
    EXPECT_EQ(mem.readB(0x5007), 0x08u);
    EXPECT_EQ(mem.readL(0x5000), 0x04030201u);
    // Unwritten memory reads zero.
    EXPECT_EQ(mem.readQ(0x999000), 0u);
    // Cross-page access works.
    mem.writeQ(0x5ffc, 0xaabbccddeeff1122ull);
    EXPECT_EQ(mem.readQ(0x5ffc), 0xaabbccddeeff1122ull);
}

TEST(MemImgTest, FaultPredicate)
{
    using arch::MemoryImage;
    constexpr Addr top = ~Addr{0};
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        EXPECT_TRUE(MemoryImage::faults(0, n));
        EXPECT_TRUE(MemoryImage::faults(4095, n));
        EXPECT_FALSE(MemoryImage::faults(4096, n));
        // The last n bytes of the address space are the last valid
        // access; one byte further wraps onto the null page.
        const Addr last = top - (n - 1);
        EXPECT_FALSE(MemoryImage::faults(last, n)) << n;
        EXPECT_TRUE(MemoryImage::faults(last + 1, n)) << n;
    }
}

TEST(MemImgTest, DoubleRoundTrip)
{
    arch::MemoryImage mem;
    mem.writeF(0x6000, 3.14159);
    EXPECT_DOUBLE_EQ(mem.readF(0x6000), 3.14159);
}

namespace
{

/** Byte-map reference for MemoryImage: absent bytes read zero. */
struct ByteMapMemory
{
    std::map<Addr, std::uint8_t> bytes;

    std::uint64_t
    read(Addr addr, unsigned n) const
    {
        std::uint64_t value = 0;
        for (unsigned i = 0; i < n; ++i) {
            auto it = bytes.find(addr + i);
            if (it != bytes.end())
                value |= static_cast<std::uint64_t>(it->second) << (8 * i);
        }
        return value;
    }

    void
    write(Addr addr, std::uint64_t value, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            bytes[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }

    /** Page numbers holding at least one written byte, sorted. */
    std::vector<Addr>
    pages() const
    {
        std::vector<Addr> nums;
        for (const auto &[addr, byte] : bytes) {
            Addr pnum = addr >> arch::MemoryImage::pageShift;
            if (nums.empty() || nums.back() != pnum)
                nums.push_back(pnum);
        }
        return nums;
    }
};

} // namespace

// A seeded mix of 1-, 2-, 4- and 8-byte accesses checked against the
// byte map, over more pages than the translation cache holds, that
// share cache entries, straddle page ends and include never-written
// pages; then clone, move and importPage on the result.
TEST(MemImgTest, MatchesByteMapReference)
{
    constexpr Addr pageSize = arch::MemoryImage::pageSize;
    // Page numbers 64 apart share a translation-cache entry: 80 such
    // pages are written, and 10 more are only ever read.
    std::vector<Addr> written, unwritten;
    for (Addr i = 0; i < 80; ++i)
        written.push_back((1 + 64 * i) * pageSize);
    for (Addr i = 0; i < 10; ++i)
        unwritten.push_back((33 + 64 * i) * pageSize);

    Rng rng(7);
    arch::MemoryImage mem;
    ByteMapMemory ref;
    for (unsigned step = 0; step < 200'000; ++step) {
        const bool is_write = rng.chance(1, 2);
        const std::vector<Addr> &pages =
            is_write || rng.chance(3, 4) ? written : unwritten;
        const Addr page = pages[rng.below(pages.size())];
        const Addr off = rng.chance(1, 4) ? rng.range(4093, 4095)
                                          : rng.below(pageSize);
        const unsigned n = 1u << rng.below(4);
        const Addr addr = page + off;
        if (is_write) {
            const std::uint64_t value = rng.next();
            mem.write(addr, value, n);
            ref.write(addr, value, n);
        } else {
            ASSERT_EQ(mem.read(addr, n), ref.read(addr, n))
                << "step " << step << ": " << n << " bytes at 0x"
                << std::hex << addr;
        }
    }
    for (Addr page : unwritten)
        EXPECT_EQ(mem.readQ(page + 64), 0u);

    const std::vector<Addr> nums = mem.pageNumbers();
    EXPECT_TRUE(std::is_sorted(nums.begin(), nums.end()));
    EXPECT_EQ(nums, ref.pages());
    EXPECT_EQ(mem.pageCount(), nums.size());

    // Every page and its bytes, through the inline path.
    auto matches = [&ref](const arch::MemoryImage &img) {
        for (const auto &[addr, byte] : ref.bytes) {
            if (img.readB(addr) != byte)
                return false;
        }
        return true;
    };

    arch::MemoryImage copy = mem.clone();
    EXPECT_EQ(copy.pageNumbers(), nums);
    EXPECT_EQ(copy.contentHash(), mem.contentHash());
    EXPECT_TRUE(matches(copy));
    // The clone owns its own pages.
    const Addr probe = written[3] + 100;
    copy.writeQ(probe, ~ref.read(probe, 8));
    EXPECT_EQ(mem.readQ(probe), ref.read(probe, 8));
    EXPECT_NE(copy.contentHash(), mem.contentHash());

    // A move leaves the source empty, cached translations included:
    // the source just read every written page.
    EXPECT_TRUE(matches(mem));
    arch::MemoryImage moved = std::move(mem);
    EXPECT_TRUE(matches(moved));
    EXPECT_EQ(mem.pageCount(), 0u);
    EXPECT_TRUE(mem.pageNumbers().empty());
    for (Addr page : written)
        EXPECT_EQ(mem.readQ(page + 8), 0u) << std::hex << page;

    // importPage over a cached page: later reads see the new bytes.
    const Addr target = written[5];
    moved.readQ(target);
    std::vector<std::uint8_t> fresh(pageSize);
    for (std::size_t i = 0; i < pageSize; ++i)
        fresh[i] = static_cast<std::uint8_t>(i * 7 + 1);
    moved.importPage(target / pageSize, fresh.data());
    for (std::size_t i = 0; i < pageSize; ++i)
        ref.bytes[target + i] = fresh[i];
    EXPECT_TRUE(matches(moved));
    EXPECT_EQ(moved.readQ(target + 4092), ref.read(target + 4092, 8));
}
