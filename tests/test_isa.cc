/**
 * @file
 * ISA tests: opcode traits consistency, the assembler's label
 * resolution, and Program section management.
 */

#include <string>

#include <gtest/gtest.h>

#include "common/failure.hh"
#include "isa/assembler.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"

using namespace specslice;
using namespace specslice::isa;

TEST(OpTraits, EveryOpcodeHasTraits)
{
    for (unsigned i = 0; i < static_cast<unsigned>(Opcode::NumOpcodes);
         ++i) {
        const OpTraits &t = opTraits(static_cast<Opcode>(i));
        EXPECT_NE(t.mnemonic, nullptr);
        EXPECT_GE(t.latency, 1u);
        // An instruction is at most one of load/store/branch kinds.
        int kinds = t.isLoad + t.isStore + t.isCondBranch +
                    t.isUncondDirect + t.isIndirect;
        EXPECT_LE(kinds, 1) << t.mnemonic;
    }
}

TEST(OpTraits, ClassPredicates)
{
    EXPECT_TRUE(opTraits(Opcode::Ldq).isLoad);
    EXPECT_TRUE(opTraits(Opcode::Stq).isStore);
    EXPECT_TRUE(opTraits(Opcode::Beq).isCondBranch);
    EXPECT_TRUE(opTraits(Opcode::Br).isUncondDirect);
    EXPECT_TRUE(opTraits(Opcode::Jmp).isIndirect);
    EXPECT_TRUE(opTraits(Opcode::Call).isCall);
    EXPECT_TRUE(opTraits(Opcode::Ret).isReturn);
    EXPECT_TRUE(isControl(Opcode::CallR));
    EXPECT_FALSE(isControl(Opcode::Add));
    EXPECT_TRUE(isMem(Opcode::Prefetch));
    // CMOV reads its own destination.
    EXPECT_TRUE(opTraits(Opcode::CmovEq).readsRc);
    EXPECT_FALSE(opTraits(Opcode::Add).readsRc);
}

TEST(AssemblerTest, ResolvesForwardAndBackwardLabels)
{
    Assembler as(0x1000);
    as.label("top");
    as.beq(1, "bottom");     // forward
    as.br("top");            // backward
    as.label("bottom");
    as.halt();
    CodeSection sec = as.finish();

    ASSERT_EQ(sec.code.size(), 3u);
    EXPECT_EQ(sec.code[0].target, 0x1010u);
    EXPECT_EQ(sec.code[1].target, 0x1000u);
}

TEST(AssemblerTest, HereTracksPosition)
{
    Assembler as(0x2000);
    EXPECT_EQ(as.here(), 0x2000u);
    as.nop();
    as.nop();
    EXPECT_EQ(as.here(), 0x2010u);
}

TEST(AssemblerTest, Ldi64ProducesExactValues)
{
    // Check via the functional path: assemble, then inspect the
    // emitted instruction sequences' semantics with known values.
    std::uint64_t values[] = {
        0,
        1,
        0x7fffffff,
        0xffffffff,
        0x100000000ull,
        0x123456789abcdef0ull,
        ~std::uint64_t{0},
        0x8000000000000000ull,
    };
    for (std::uint64_t v : values) {
        Assembler as(0x1000);
        as.ldi64(5, v);
        CodeSection sec = as.finish();
        // Interpret the (ldi/slli/ori) sequence directly.
        std::uint64_t r5 = 0;
        for (const Instruction &i : sec.code) {
            switch (i.op) {
              case Opcode::Ldi:
                r5 = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(i.imm));
                break;
              case Opcode::SllI:
                r5 <<= i.imm;
                break;
              case Opcode::OrI:
                r5 |= static_cast<std::uint32_t>(i.imm);
                break;
              default:
                FAIL() << "unexpected op in ldi64 expansion";
            }
        }
        EXPECT_EQ(r5, v) << "value 0x" << std::hex << v;
    }
}

TEST(ProgramTest, FetchAndSymbols)
{
    Assembler as(0x1000);
    as.label("entry");
    as.addi(1, 1, 5);
    as.halt();
    Program prog;
    prog.addSection(as.finish());
    prog.addSymbols(as.symbols());

    ASSERT_NE(prog.fetch(0x1000), nullptr);
    EXPECT_EQ(prog.fetch(0x1000)->op, Opcode::AddI);
    EXPECT_EQ(prog.fetch(0x2000), nullptr);
    EXPECT_EQ(prog.fetch(0x1004), nullptr);  // misaligned
    EXPECT_EQ(prog.symbol("entry"), 0x1000u);
    EXPECT_TRUE(prog.hasSymbol("entry"));
    EXPECT_FALSE(prog.hasSymbol("nope"));
    EXPECT_EQ(prog.staticSize(), 2u);
}

TEST(ProgramTest, FetchSectionBoundaries)
{
    Assembler a(0x1000), b(0x8000);
    a.nop();
    a.nop();
    a.nop();
    b.halt();
    Program prog;
    prog.addSection(a.finish());
    prog.addSection(b.finish());

    // First and last instruction of each section hit.
    EXPECT_NE(prog.fetch(0x1000), nullptr);
    EXPECT_NE(prog.fetch(0x1000 + 2 * instBytes), nullptr);
    EXPECT_NE(prog.fetch(0x8000), nullptr);
    // One past the end of a section misses.
    EXPECT_EQ(prog.fetch(0x1000 + 3 * instBytes), nullptr);
    EXPECT_EQ(prog.fetch(0x8000 + instBytes), nullptr);
    // Below the first section, in the inter-section gap, misaligned.
    EXPECT_EQ(prog.fetch(0x1000 - instBytes), nullptr);
    EXPECT_EQ(prog.fetch(0), nullptr);
    EXPECT_EQ(prog.fetch(0x4000), nullptr);
    EXPECT_EQ(prog.fetch(0x1000 + 1), nullptr);
    EXPECT_EQ(prog.fetch(0x8000 + instBytes / 2), nullptr);
    EXPECT_EQ(prog.fetch(~Addr{0}), nullptr);
}

TEST(ProgramTest, SparseLayoutIsRefused)
{
    // Sections further apart than flatIndexLimit instructions would
    // exceed the decode array's span: adding the far one is fatal and
    // names the span, and the program keeps the sections it had.
    Addr far = 0x1000 + (Program::flatIndexLimit + 16) * instBytes;
    Assembler a(0x1000), b(far);
    a.nop();
    a.nop();
    b.halt();
    Program prog;
    prog.addSection(a.finish());
    {
        ScopedThrowErrors throwing;
        try {
            prog.addSection(b.finish());
            ADD_FAILURE() << "a sparse layout was accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Fatal);
            const std::string what = e.what();
            EXPECT_NE(what.find(std::to_string(Program::flatIndexLimit +
                                               17) +
                                " instructions"),
                      std::string::npos)
                << what;
        }
    }
    EXPECT_EQ(prog.sections().size(), 1u);
    EXPECT_EQ(prog.fetch(0x1000)->op, Opcode::Nop);
    EXPECT_EQ(prog.fetch(far), nullptr);

    // A layout of exactly flatIndexLimit instructions fits.
    Assembler edge(0x1000 + (Program::flatIndexLimit - 1) * instBytes);
    edge.halt();
    prog.addSection(edge.finish());
    EXPECT_EQ(prog.fetch(0x1000 + (Program::flatIndexLimit - 1) *
                                      instBytes)->op,
              Opcode::Halt);
}

TEST(ProgramTest, SectionsAddedOutOfOrder)
{
    Assembler lo(0x1000), hi(0x8000);
    lo.nop();
    hi.halt();
    Program prog;
    prog.addSection(hi.finish());  // high base first
    prog.addSection(lo.finish());

    EXPECT_EQ(prog.fetch(0x1000)->op, Opcode::Nop);
    EXPECT_EQ(prog.fetch(0x8000)->op, Opcode::Halt);
    ASSERT_EQ(prog.sections().size(), 2u);
    EXPECT_LT(prog.sections()[0].base, prog.sections()[1].base);
}

TEST(ProgramTest, CopiedProgramFetchesFromItsOwnStorage)
{
    Assembler as(0x1000);
    as.addi(1, 1, 5);
    Program copy;
    {
        Program orig;
        orig.addSection(as.finish());
        copy = orig;
        // The copy's decode array must point at the copy's sections,
        // not the original's.
        EXPECT_NE(copy.fetch(0x1000), orig.fetch(0x1000));
    }
    ASSERT_NE(copy.fetch(0x1000), nullptr);  // orig destroyed
    EXPECT_EQ(copy.fetch(0x1000)->op, Opcode::AddI);
    EXPECT_EQ(copy.fetch(0x1000), &copy.sections()[0].code[0]);
}

TEST(ProgramTest, MultipleSections)
{
    Assembler a(0x1000), b(0x8000);
    a.nop();
    b.halt();
    Program prog;
    prog.addSection(a.finish());
    prog.addSection(b.finish());
    EXPECT_EQ(prog.fetch(0x1000)->op, Opcode::Nop);
    EXPECT_EQ(prog.fetch(0x8000)->op, Opcode::Halt);
    EXPECT_EQ(prog.staticSize(), 2u);
}

TEST(ProgramTest, DisassembleContainsLabels)
{
    Assembler as(0x1000);
    as.label("fn");
    as.ret();
    Program prog;
    prog.addSection(as.finish());
    prog.addSymbols(as.symbols());
    std::string d = prog.disassemble();
    EXPECT_NE(d.find("fn:"), std::string::npos);
    EXPECT_NE(d.find("ret"), std::string::npos);
}

TEST(InstructionTest, DisassembleForms)
{
    Instruction add;
    add.op = Opcode::Add;
    add.rc = 3;
    add.ra = 1;
    add.rb = 2;
    EXPECT_EQ(add.disassemble(), "add r3, r1, r2");

    Instruction ld;
    ld.op = Opcode::Ldq;
    ld.rc = 4;
    ld.rb = 30;
    ld.imm = 16;
    EXPECT_EQ(ld.disassemble(), "ldq r4, 16(r30)");

    Instruction st;
    st.op = Opcode::Stq;
    st.ra = 7;
    st.rb = 30;
    st.imm = -8;
    EXPECT_EQ(st.disassemble(), "stq r7, -8(r30)");
}
