/**
 * @file
 * Per-opcode differential test. Every opcode runs on edge and seeded
 * random operands through arch::FastForward's specialised handlers and
 * through arch::trace (arch::execute) from identical state, and the
 * two must agree on every register, the memory image, the next PC, the
 * instruction count and the stop reason. Each program loads its
 * operands from memory, runs the opcode once, then halts.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "arch/fastfwd.hh"
#include "arch/tracer.hh"
#include "common/failure.hh"
#include "common/rng.hh"
#include "isa/program.hh"
#include "sim/simulator.hh"

using namespace specslice;
using isa::Instruction;
using isa::Opcode;

namespace
{

constexpr Addr codeBase = 0x10000;
/** Where the program finds ra, rb and rc's old value, 8 bytes apart. */
constexpr Addr operandBase = 0x40000;
constexpr RegIndex rA = 1, rB = 2, rC = 3, rBase = 10;

/** The instruction under test follows ldi and three loads. */
constexpr Addr testPc = codeBase + 4 * isa::instBytes;
/** A direct transfer's mapped target: the second of two halts. */
constexpr Addr takenPc = testPc + 2 * isa::instBytes;
/** Outside the program image, so outside FastForward's decode array. */
constexpr Addr unmappedPc = 0x900000;

constexpr std::uint64_t int64Min = std::uint64_t{1} << 63;
constexpr std::uint64_t int64Max = int64Min - 1;
constexpr std::uint64_t minusOne = ~std::uint64_t{0};

/** ra, rb and rc's value before the instruction runs. */
struct Operands
{
    std::uint64_t a = 0, b = 0, c = 0;
};

/** One instruction under test and the operands to run it on. */
struct Variant
{
    Instruction inst;
    std::vector<Operands> cases;
};

Instruction
make(Opcode op, RegIndex rc, RegIndex ra, RegIndex rb,
     std::int32_t imm = 0, Addr target = invalidAddr)
{
    Instruction i;
    i.op = op;
    i.rc = rc;
    i.ra = ra;
    i.rb = rb;
    i.imm = imm;
    i.target = target;
    return i;
}

isa::Program
programFor(const Instruction &inst)
{
    constexpr RegIndex z = isa::regZero;
    isa::CodeSection sec;
    sec.base = codeBase;
    sec.code = {
        make(Opcode::Ldi, rBase, z, z,
             static_cast<std::int32_t>(operandBase)),
        make(Opcode::Ldq, rA, z, rBase, 0),
        make(Opcode::Ldq, rB, z, rBase, 8),
        make(Opcode::Ldq, rC, z, rBase, 16),
        inst,
        make(Opcode::Halt, z, z, z),
        make(Opcode::Halt, z, z, z),
    };
    isa::Program prog;
    prog.addSection(std::move(sec));
    return prog;
}

std::vector<std::uint64_t>
edgeValues()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<std::uint64_t> v = {
        0, 1, minusOne, int64Min, int64Max, 2, minusOne - 1,
        63, 64, 65, 127, 0x80000000, 0xffffffff, 0x100000000,
    };
    for (double d : {nan, -nan, 0.0, -0.0, inf, -inf, 1e300, -1e300, 1.5,
                     -2.5, 0x1p63, -0x1p63, 0x1p63 - 1024, -0x1p63 - 2048})
        v.push_back(std::bit_cast<std::uint64_t>(d));
    return v;
}

/** Seeded operands: raw bits, small signed integers and doubles
 *  around the int64 range. */
std::vector<std::uint64_t>
randomValues(Rng &rng, unsigned count)
{
    std::vector<std::uint64_t> v;
    for (unsigned i = 0; i < count; ++i) {
        switch (i % 3) {
          case 0:
            v.push_back(rng.next());
            break;
          case 1:
            v.push_back(rng.range(0, 200) - 100);
            break;
          default:
            v.push_back(std::bit_cast<std::uint64_t>(
                (rng.uniform() - 0.5) * 0x1p65));
            break;
        }
    }
    return v;
}

std::vector<Operands>
casesOver(const std::vector<std::uint64_t> &values, std::uint64_t b = 0,
          std::uint64_t c = 0x5a5a5a5a5a5a5a5a)
{
    std::vector<Operands> out;
    for (std::uint64_t a : values)
        out.push_back({a, b, c});
    return out;
}

/** Every operand pair from values, then count seeded random pairs. */
std::vector<Operands>
allPairs(const std::vector<std::uint64_t> &values, Rng &rng,
         unsigned count)
{
    std::vector<Operands> out;
    for (std::uint64_t a : values)
        for (std::uint64_t b : values)
            out.push_back({a, b, rng.next()});
    const std::vector<std::uint64_t> ra = randomValues(rng, count);
    const std::vector<std::uint64_t> rb = randomValues(rng, count);
    for (unsigned i = 0; i < count; ++i)
        out.push_back({ra[i], rb[(i * 7) % count], rng.next()});
    return out;
}

enum class Kind
{
    RegValue, ImmValue, Load, Store, CondBranch, Direct, Indirect, Plain,
    Unknown,
};

/** Lists every opcode, so one added without a case here fails. */
Kind
kindOf(Opcode op)
{
    using enum Opcode;
    switch (op) {
      case Add: case Sub: case And: case Or: case Xor: case Sll: case Srl:
      case Sra: case CmpEq: case CmpLt: case CmpLe: case CmpUlt:
      case S4Add: case S8Add: case CmovEq: case CmovNe: case CmovLt:
      case Mul: case Div: case FAdd: case FSub: case FMul: case FCmpLt:
      case FCmpLe: case FCmpEq: case CvtIF: case CvtFI:
        return Kind::RegValue;
      case AddI: case SubI: case AndI: case OrI: case XorI: case SllI:
      case SrlI: case SraI: case CmpEqI: case CmpLtI: case CmpLeI:
      case CmpUltI: case Ldi:
        return Kind::ImmValue;
      case Ldq: case Ldl: case Ldbu: case Prefetch:
        return Kind::Load;
      case Stq: case Stl: case Stb:
        return Kind::Store;
      case Beq: case Bne: case Blt: case Ble: case Bgt: case Bge:
        return Kind::CondBranch;
      case Br: case Call:
        return Kind::Direct;
      case Jmp: case CallR: case Ret:
        return Kind::Indirect;
      case Nop: case Halt: case SliceEnd:
        return Kind::Plain;
      case NumOpcodes:
        break;
    }
    return Kind::Unknown;
}

/** Base-register values for loads and stores. Against the variants'
 *  offsets they reach page interiors, page-straddling accesses, the
 *  null page and the wrap at the top of the address space. */
const std::vector<std::uint64_t> memoryBases = {
    0, 8, 4095, 0x1000, 0x50000, 0x50ff9, 0x50ffc, 0x50fff, 0x51000,
    0x7fffffff, 0x80000000, minusOne, minusOne - 7, minusOne - 4095,
};
const std::vector<std::int32_t> memoryOffsets = {
    0, 3, -5, 8, 4093, -4096, std::numeric_limits<std::int32_t>::max(),
    std::numeric_limits<std::int32_t>::min(),
};

std::vector<Variant>
variantsFor(Opcode op)
{
    constexpr RegIndex z = isa::regZero;
    Rng rng(0x5e3a + static_cast<unsigned>(op));
    const std::vector<std::uint64_t> edges = edgeValues();
    std::vector<Variant> out;
    switch (kindOf(op)) {
      case Kind::RegValue: {
        out.push_back({make(op, rC, rA, rB), allPairs(edges, rng, 256)});
        // Writes to r63 are dropped; ra and rb may be one register.
        out.push_back({make(op, z, rA, rB), allPairs(edges, rng, 16)});
        out.push_back({make(op, rC, rA, rA), casesOver(edges)});
        break;
      }
      case Kind::ImmValue: {
        std::vector<std::int32_t> imms = {
            0, 1, -1, 2, 63, 64, 65, 127, -64, -65, 0x7fff, -0x8000,
            std::numeric_limits<std::int32_t>::max(),
            std::numeric_limits<std::int32_t>::min(),
        };
        for (int i = 0; i < 4; ++i)
            imms.push_back(static_cast<std::int32_t>(rng.next()));
        std::vector<std::uint64_t> values = edges;
        for (std::uint64_t v : randomValues(rng, 64))
            values.push_back(v);
        for (std::int32_t imm : imms)
            out.push_back({make(op, rC, rA, z, imm), casesOver(values)});
        break;
      }
      case Kind::Load:
      case Kind::Store: {
        // A store's data is ra; a load's old rc value must survive a
        // fault.
        std::vector<Operands> cases;
        for (std::uint64_t data :
             {std::uint64_t{0x8899aabbccddeeff}, minusOne, int64Min,
              std::uint64_t{0x7f}, std::uint64_t{0}})
            for (std::uint64_t base : memoryBases)
                cases.push_back({data, base, 0x5a5a5a5a5a5a5a5a});
        for (std::int32_t imm : memoryOffsets)
            out.push_back({make(op, rC, rA, rB, imm), cases});
        out.push_back({make(op, z, rA, rB, 0), cases});
        break;
      }
      case Kind::CondBranch: {
        std::vector<std::uint64_t> values = {
            0, 1, minusOne, 2, minusOne - 1, int64Min, int64Max};
        for (std::uint64_t v : randomValues(rng, 32))
            values.push_back(v);
        for (Addr target : {takenPc, testPc + isa::instBytes, unmappedPc})
            out.push_back({make(op, z, rA, z, 0, target),
                           casesOver(values)});
        break;
      }
      case Kind::Direct:
        for (RegIndex rc : {isa::regLink, z, rA})
            for (Addr target : {takenPc, unmappedPc})
                out.push_back({make(op, rc, z, z, 0, target),
                               casesOver({0})});
        break;
      case Kind::Indirect: {
        // The target is in ra (jmp, ret) or rb (callr).
        std::vector<Operands> cases;
        for (Addr target :
             {takenPc, testPc + isa::instBytes, testPc, takenPc + 4,
              takenPc + isa::instBytes, codeBase - isa::instBytes,
              unmappedPc, Addr{0}, minusOne})
            cases.push_back({target, target, 0x5a5a5a5a5a5a5a5a});
        if (op == Opcode::CallR) {
            for (RegIndex rc : {isa::regLink, rB, z})
                out.push_back({make(op, rc, z, rB), cases});
        } else {
            out.push_back({make(op, z, rA, z), cases});
        }
        break;
      }
      case Kind::Plain:
        out.push_back({make(op, z, z, z), casesOver({0})});
        break;
      case Kind::Unknown:
        break;
    }
    return out;
}

/** One engine's stop, next PC and count. */
struct Outcome
{
    arch::FfStop stop = arch::FfStop::Budget;
    Addr pc = codeBase;
    std::uint64_t count = 0;
};

/** rb + imm: a memory opcode's address. */
Addr
effectiveAddress(const Instruction &inst, const Operands &o)
{
    return o.b + static_cast<std::uint64_t>(inst.imm);
}

/** The operand words, and for a memory opcode a byte pattern around
 *  its effective address (both signs in every byte lane). */
void
seed(arch::MemoryImage &mem, const Instruction &inst, const Operands &o)
{
    mem.writeQ(operandBase, o.a);
    mem.writeQ(operandBase + 8, o.b);
    mem.writeQ(operandBase + 16, o.c);
    if (!inst.isMem())
        return;
    const Addr ea = effectiveAddress(inst, o);
    for (Addr i = 0; i < 24; ++i) {
        const Addr addr = ea - 8 + i;
        if (!arch::MemoryImage::faults(addr, 1))
            mem.writeB(addr, static_cast<std::uint8_t>(addr * 0x9d + 0x35));
    }
}

::testing::AssertionResult
sameState(const arch::FastForward &ff, const Outcome &ref,
          const arch::RegFile &regs, const arch::MemoryImage &mem,
          Addr ea)
{
    if (ff.lastStop() != ref.stop)
        return ::testing::AssertionFailure()
               << "stop " << arch::ffStopName(ff.lastStop()) << " vs "
               << arch::ffStopName(ref.stop);
    if (ff.pc() != ref.pc)
        return ::testing::AssertionFailure()
               << std::hex << "pc 0x" << ff.pc() << " vs 0x" << ref.pc;
    if (ff.executed() != ref.count)
        return ::testing::AssertionFailure()
               << "count " << ff.executed() << " vs " << ref.count;
    for (RegIndex r = 0; r < isa::numRegs; ++r) {
        if (ff.regs().read(r) != regs.read(r))
            return ::testing::AssertionFailure()
                   << std::hex << "r" << std::dec << int{r} << std::hex
                   << " 0x" << ff.regs().read(r) << " vs 0x"
                   << regs.read(r);
    }
    for (Addr i = 0; i < 24; ++i) {
        const Addr addr = ea - 8 + i;
        if (ff.mem().readB(addr) != mem.readB(addr))
            return ::testing::AssertionFailure()
                   << std::hex << "byte at 0x" << addr << ": 0x"
                   << int{ff.mem().readB(addr)} << " vs 0x"
                   << int{mem.readB(addr)};
    }
    if (ff.mem().pageNumbers() != mem.pageNumbers() ||
        ff.mem().contentHash() != mem.contentHash())
        return ::testing::AssertionFailure() << "memory images differ";
    return ::testing::AssertionSuccess();
}

/** Runs one case on both engines from identical state and compares
 *  them right after the instruction under test, then at the end. */
::testing::AssertionResult
runBoth(const isa::Program &prog, arch::FastForward &ff,
        const Instruction &inst, const Operands &o)
{
    arch::RegFile regs;
    arch::MemoryImage mem;
    ff.reset(codeBase);
    seed(ff.mem(), inst, o);
    seed(mem, inst, o);
    const Addr ea = effectiveAddress(inst, o);

    Outcome ref;
    for (std::uint64_t budget : {5, 16}) {
        ff.advance(budget);
        if (ref.stop == arch::FfStop::Budget) {
            const arch::TraceResult tr =
                arch::trace(prog, ref.pc, regs, mem, budget,
                            [](const arch::TraceEvent &) {});
            ref = {tr.reason, tr.finalPc, ref.count + tr.count};
        }
        ::testing::AssertionResult same = sameState(ff, ref, regs, mem, ea);
        if (!same)
            return same << " after up to " << budget << " more instructions";
    }
    return ::testing::AssertionSuccess();
}

class OpcodeDiffTest : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(OpcodeDiffTest, FastForwardMatchesTracer)
{
    const auto op = static_cast<Opcode>(GetParam());
    const std::vector<Variant> variants = variantsFor(op);
    ASSERT_FALSE(variants.empty())
        << "no differential cases for " << isa::opTraits(op).mnemonic;
    for (const Variant &v : variants) {
        const isa::Program prog = programFor(v.inst);
        arch::FastForward ff(prog);
        for (const Operands &o : v.cases) {
            ASSERT_TRUE(runBoth(prog, ff, v.inst, o))
                << v.inst.disassemble() << std::hex << " with ra 0x" << o.a
                << ", rb 0x" << o.b << ", rc 0x" << o.c;
        }
    }
}

namespace
{

/**
 * Runs one case through the detailed core with the retirement checker
 * on, against FastForward's run of the same program: a fault or a jump
 * off the image is fatal on the main thread; any other case completes
 * with FastForward's count, every retirement checked.
 */
::testing::AssertionResult
runCore(const isa::Program &prog, const Instruction &inst,
        const Operands &o)
{
    constexpr std::uint64_t budget = 16;
    arch::FastForward ff(prog);
    ff.reset(codeBase);
    seed(ff.mem(), inst, o);
    ff.advance(budget);

    sim::Workload wl;
    wl.name = inst.disassemble();
    wl.program = prog;
    wl.entry = codeBase;
    wl.initMemory = [inst, o](arch::MemoryImage &mem) {
        seed(mem, inst, o);
    };
    sim::RunOptions opts;
    opts.maxMainInstructions = budget;
    opts.check = true;
    const sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    sim::Simulator simr(cfg);

    ScopedThrowErrors throwing;
    const bool fatal = ff.lastStop() == arch::FfStop::Fault ||
                       ff.lastStop() == arch::FfStop::UnmappedPc;
    sim::RunResult r;
    try {
        r = simr.run(wl, opts, false);
    } catch (const SimError &e) {
        if (fatal)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure() << "threw: " << e.what();
    }
    if (fatal)
        return ::testing::AssertionFailure()
               << "ran past " << arch::ffStopName(ff.lastStop());
    if (r.outcome != sim::SimOutcome::Completed)
        return ::testing::AssertionFailure()
               << "outcome " << sim::outcomeName(r.outcome);
    // The core stops retiring at the end of the cycle that reaches the
    // budget, so a program that runs on may retire a few more.
    const bool count_ok =
        ff.lastStop() == arch::FfStop::Budget
            ? r.mainRetired >= budget &&
                  r.mainRetired < budget + cfg.retireWidth
            : r.mainRetired == ff.executed();
    if (!count_ok)
        return ::testing::AssertionFailure()
               << "retired " << r.mainRetired << ", FastForward ran "
               << ff.executed() << " ("
               << arch::ffStopName(ff.lastStop()) << ")";
    if (r.checkedRetired != r.mainRetired)
        return ::testing::AssertionFailure()
               << "checked " << r.checkedRetired << " of "
               << r.mainRetired;
    return ::testing::AssertionSuccess();
}

/**
 * The detailed core costs far more per case than the functional
 * engines, so it runs every coreStride-th case of a long variant, from
 * an offset that moves with the variant. The stride is coprime to the
 * 28 edge values, so the walk over a variant's edge pairs still gives
 * every edge value as ra and as rb.
 */
constexpr std::size_t coreStride = 9;

class OpcodeCoreTest : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(OpcodeCoreTest, DetailedCoreRetiresChecked)
{
    const auto op = static_cast<Opcode>(GetParam());
    const std::vector<Variant> variants = variantsFor(op);
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        const Variant &v = variants[vi];
        const isa::Program prog = programFor(v.inst);
        const std::size_t stride = v.cases.size() > 64 ? coreStride : 1;
        for (std::size_t i = vi % stride; i < v.cases.size(); i += stride) {
            const Operands &o = v.cases[i];
            ASSERT_TRUE(runCore(prog, v.inst, o))
                << v.inst.disassemble() << std::hex << " with ra 0x" << o.a
                << ", rb 0x" << o.b << ", rc 0x" << o.c;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeCoreTest,
    ::testing::Range(0u, static_cast<unsigned>(Opcode::NumOpcodes)),
    [](const ::testing::TestParamInfo<unsigned> &info) {
        return std::string(
            isa::opTraits(static_cast<Opcode>(info.param)).mnemonic);
    });

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeDiffTest,
    ::testing::Range(0u, static_cast<unsigned>(Opcode::NumOpcodes)),
    [](const ::testing::TestParamInfo<unsigned> &info) {
        return std::string(
            isa::opTraits(static_cast<Opcode>(info.param)).mnemonic);
    });
