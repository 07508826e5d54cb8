/**
 * @file
 * The zsr instruction set: an Alpha-like 64-bit RISC ISA sufficient to
 * express the paper's workloads and speculative slices.
 *
 * Conventions:
 *  - 64 general 64-bit registers; r63 is hardwired to zero and r62 is
 *    the link register by convention.
 *  - Instructions occupy 8 bytes of instruction memory each.
 *  - R-format:  rc = ra OP rb
 *  - I-format:  rc = ra OP imm (imm is a signed 32-bit immediate)
 *  - Memory:    loads  rc = MEM[rb + imm]; stores MEM[rb + imm] = ra
 *  - Branches:  compare ra against zero (Alpha style); direct targets
 *    are resolved to absolute addresses by the assembler.
 *  - FP values live in the general registers as IEEE double bit
 *    patterns; FP compares produce an integer 0/1 so the integer
 *    branches can consume them.
 */

#ifndef SPECSLICE_ISA_OPCODES_HH
#define SPECSLICE_ISA_OPCODES_HH

#include <cstddef>
#include <cstdint>

namespace specslice::isa
{

/** Byte distance between consecutive instructions. */
constexpr std::uint64_t instBytes = 8;

/** Number of architectural registers. */
constexpr unsigned numRegs = 64;

/** Hardwired zero register. */
constexpr std::uint8_t regZero = 63;

/** Conventional link (return-address) register. */
constexpr std::uint8_t regLink = 62;

/** Every operation in the zsr ISA. */
enum class Opcode : std::uint16_t
{
    // Simple integer ALU, register form.
    Add, Sub, And, Or, Xor, Sll, Srl, Sra,
    CmpEq, CmpLt, CmpLe, CmpUlt,
    S4Add,          ///< rc = (ra << 2) + rb
    S8Add,          ///< rc = (ra << 3) + rb
    CmovEq,         ///< rc = rb if ra == 0 (rc also a source)
    CmovNe,         ///< rc = rb if ra != 0 (rc also a source)
    CmovLt,         ///< rc = rb if ra <  0 (rc also a source)
    // Simple integer ALU, immediate form.
    AddI, SubI, AndI, OrI, XorI, SllI, SrlI, SraI,
    CmpEqI, CmpLtI, CmpLeI, CmpUltI,
    Ldi,            ///< rc = sign-extended imm
    // Complex integer (single complex unit, long latency).
    Mul, Div,
    // Floating point (operands are double bit patterns).
    FAdd, FSub, FMul,
    FCmpLt,         ///< rc = (double)ra <  (double)rb ? 1 : 0
    FCmpLe,         ///< rc = (double)ra <= (double)rb ? 1 : 0
    FCmpEq,         ///< rc = (double)ra == (double)rb ? 1 : 0
    CvtIF,          ///< rc = bits(double(int64(ra)))
    CvtFI,          ///< rc = int64(double-bits(ra))
    // Memory.
    Ldq,            ///< rc = MEM64[rb + imm]
    Ldl,            ///< rc = sign-extended MEM32[rb + imm]
    Ldbu,           ///< rc = zero-extended MEM8[rb + imm]
    Stq,            ///< MEM64[rb + imm] = ra
    Stl,            ///< MEM32[rb + imm] = low32(ra)
    Stb,            ///< MEM8[rb + imm] = low8(ra)
    Prefetch,       ///< load-like, no destination, never faults
    // Control.
    Beq, Bne, Blt, Ble, Bgt, Bge,   ///< conditional on ra vs zero
    Br,             ///< unconditional direct
    Call,           ///< direct call: rc = return address, pc = target
    Jmp,            ///< unconditional indirect: pc = ra
    CallR,          ///< indirect call: rc = return address, pc = rb
    Ret,            ///< indirect return: pc = ra (pops RAS)
    // Misc.
    Nop,
    Halt,           ///< terminates the main program
    SliceEnd,       ///< terminates a helper (slice) thread

    NumOpcodes
};

/** Functional unit classes (Table 1's execution core). */
enum class FuClass : std::uint8_t
{
    IntAlu,     ///< full complement of simple integer units
    IntComplex, ///< single complex integer unit (mul/div)
    FpAlu,      ///< floating point (shares simple unit count)
    MemPort,    ///< load/store ports
    Branch,     ///< resolved on a simple unit
    None,       ///< nop/halt consume no unit
};

/** Static properties of an opcode. */
struct OpTraits
{
    const char *mnemonic;
    FuClass fu;
    std::uint8_t latency;    ///< execute latency in cycles
    bool isLoad;
    bool isStore;
    std::uint8_t memBytes;   ///< bytes a load/store accesses, else 0
    bool signExtends;        ///< a load sign-extends (else zero-extends)
    bool isCondBranch;
    bool isUncondDirect;     ///< br / call
    bool isIndirect;         ///< jmp / callr / ret
    bool isCall;
    bool isReturn;
    bool writesRc;
    bool readsRa;
    bool readsRb;
    bool readsRc;            ///< cmov reads its destination
    bool hasImm;
};

namespace opcodes_detail
{

// Shorthand flags for table readability.
inline constexpr bool Y = true;
inline constexpr bool N = false;

using enum FuClass;

// One row per opcode, in enum order. by = memBytes, sx = signExtends.
//    mnem        fu        lat ld st by sx cbr ubr ind call ret wRc rRa rRb rRc imm
inline constexpr OpTraits traitTable[] = {
    {"add",      IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"sub",      IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"and",      IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"or",       IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"xor",      IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"sll",      IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"srl",      IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"sra",      IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"cmpeq",    IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"cmplt",    IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"cmple",    IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"cmpult",   IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"s4add",    IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"s8add",    IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"cmoveq",   IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, Y, N},
    {"cmovne",   IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, Y, N},
    {"cmovlt",   IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, Y, Y, N},
    {"addi",     IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"subi",     IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"andi",     IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"ori",      IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"xori",     IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"slli",     IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"srli",     IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"srai",     IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"cmpeqi",   IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"cmplti",   IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"cmplei",   IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"cmpulti",  IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, Y},
    {"ldi",      IntAlu,     1, N, N, 0, N, N, N, N, N, N, Y, N, N, N, Y},
    {"mul",      IntComplex, 7, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"div",      IntComplex,20, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"fadd",     FpAlu,      4, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"fsub",     FpAlu,      4, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"fmul",     FpAlu,      4, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"fcmplt",   FpAlu,      4, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"fcmple",   FpAlu,      4, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"fcmpeq",   FpAlu,      4, N, N, 0, N, N, N, N, N, N, Y, Y, Y, N, N},
    {"cvtif",    FpAlu,      4, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, N},
    {"cvtfi",    FpAlu,      4, N, N, 0, N, N, N, N, N, N, Y, Y, N, N, N},
    {"ldq",      MemPort,    3, Y, N, 8, N, N, N, N, N, N, Y, N, Y, N, Y},
    {"ldl",      MemPort,    3, Y, N, 4, Y, N, N, N, N, N, Y, N, Y, N, Y},
    {"ldbu",     MemPort,    3, Y, N, 1, N, N, N, N, N, N, Y, N, Y, N, Y},
    {"stq",      MemPort,    1, N, Y, 8, N, N, N, N, N, N, N, Y, Y, N, Y},
    {"stl",      MemPort,    1, N, Y, 4, N, N, N, N, N, N, N, Y, Y, N, Y},
    {"stb",      MemPort,    1, N, Y, 1, N, N, N, N, N, N, N, Y, Y, N, Y},
    {"prefetch", MemPort,    3, Y, N, 8, N, N, N, N, N, N, N, N, Y, N, Y},
    {"beq",      Branch,     1, N, N, 0, N, Y, N, N, N, N, N, Y, N, N, N},
    {"bne",      Branch,     1, N, N, 0, N, Y, N, N, N, N, N, Y, N, N, N},
    {"blt",      Branch,     1, N, N, 0, N, Y, N, N, N, N, N, Y, N, N, N},
    {"ble",      Branch,     1, N, N, 0, N, Y, N, N, N, N, N, Y, N, N, N},
    {"bgt",      Branch,     1, N, N, 0, N, Y, N, N, N, N, N, Y, N, N, N},
    {"bge",      Branch,     1, N, N, 0, N, Y, N, N, N, N, N, Y, N, N, N},
    {"br",       Branch,     1, N, N, 0, N, N, Y, N, N, N, N, N, N, N, N},
    {"call",     Branch,     1, N, N, 0, N, N, Y, N, Y, N, Y, N, N, N, N},
    {"jmp",      Branch,     1, N, N, 0, N, N, N, Y, N, N, N, Y, N, N, N},
    {"callr",    Branch,     1, N, N, 0, N, N, N, Y, Y, N, Y, N, Y, N, N},
    {"ret",      Branch,     1, N, N, 0, N, N, N, Y, N, Y, N, Y, N, N, N},
    {"nop",      None,       1, N, N, 0, N, N, N, N, N, N, N, N, N, N, N},
    {"halt",     None,       1, N, N, 0, N, N, N, N, N, N, N, N, N, N, N},
    {"slice_end",None,       1, N, N, 0, N, N, N, N, N, N, N, N, N, N, N},
};

static_assert(sizeof(traitTable) / sizeof(traitTable[0]) ==
                  static_cast<std::size_t>(Opcode::NumOpcodes),
              "trait table out of sync with Opcode enum");

/** Panic on an opcode outside the enum (kept out of line so the
 *  inline lookup stays a bounds check and a load). */
[[noreturn]] void badOpcode(std::size_t idx);

} // namespace opcodes_detail

/** @return the static traits of op. */
constexpr const OpTraits &
opTraits(Opcode op)
{
    auto idx = static_cast<std::size_t>(op);
    if (idx >= static_cast<std::size_t>(Opcode::NumOpcodes)) [[unlikely]]
        opcodes_detail::badOpcode(idx);
    return opcodes_detail::traitTable[idx];
}

/** @return true if op transfers control (any branch/jump/call/ret). */
inline bool
isControl(Opcode op)
{
    const OpTraits &t = opTraits(op);
    return t.isCondBranch || t.isUncondDirect || t.isIndirect;
}

/** @return true if op accesses data memory. */
inline bool
isMem(Opcode op)
{
    const OpTraits &t = opTraits(op);
    return t.isLoad || t.isStore;
}

} // namespace specslice::isa

#endif // SPECSLICE_ISA_OPCODES_HH
