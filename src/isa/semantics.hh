/**
 * @file
 * What each zsr opcode computes, written once. arch::execute (the
 * reference executor behind the timing core, the retirement checker
 * and arch::trace) and arch::FastForward's specialised handlers both
 * read these definitions; the memory width and load extension are the
 * memBytes and signExtends columns of the trait table in opcodes.hh.
 *
 * Every result is defined for every operand, including three that C++
 * leaves undefined or to the compiler:
 *  - div: x / 0 is 0, and INT64_MIN / -1 wraps to INT64_MIN;
 *  - cvtfi: truncates toward zero; NaN and values outside
 *    [-2^63, 2^63) give INT64_MIN, as x86's cvttsd2si does;
 *  - fadd, fsub, fmul: a NaN result follows x86 SSE's rule (fpResult).
 */

#ifndef SPECSLICE_ISA_SEMANTICS_HH
#define SPECSLICE_ISA_SEMANTICS_HH

#include <bit>
#include <cstdint>

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace specslice::isa
{

/** A register's bits as the IEEE double they hold. */
constexpr double
asDouble(std::uint64_t bits_)
{
    return std::bit_cast<double>(bits_);
}

/** The register bits of an IEEE double. */
constexpr std::uint64_t
asBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * The register bits of FP result r of operands a and b, with x86 SSE's
 * NaN rule whatever order the compiler gives a commutative operation's
 * operands: a NaN result is the first NaN operand, quieted, or the
 * default NaN when neither operand is one.
 */
constexpr std::uint64_t
fpResult(std::uint64_t a, std::uint64_t b, double r)
{
    constexpr std::uint64_t quietBit = std::uint64_t{1} << 51;
    if (r == r)
        return asBits(r);
    if (asDouble(a) != asDouble(a))
        return a | quietBit;
    if (asDouble(b) != asDouble(b))
        return b | quietBit;
    return 0xfff8000000000000;
}

/**
 * What value opcode Op writes to rc. a is ra's value; b is rb's value,
 * or the sign-extended immediate for the immediate forms
 * (opTraits(Op).hasImm), so ldi writes b. A conditional move writes b
 * only when condition<Op>(a) holds.
 */
template <Opcode Op>
constexpr std::uint64_t
result(std::uint64_t a, std::uint64_t b)
{
    using enum Opcode;
    const auto sa = static_cast<std::int64_t>(a);
    const auto sb = static_cast<std::int64_t>(b);
    if constexpr (Op == Add || Op == AddI)
        return a + b;
    else if constexpr (Op == Sub || Op == SubI)
        return a - b;
    else if constexpr (Op == And || Op == AndI)
        return a & b;
    else if constexpr (Op == Or || Op == OrI)
        return a | b;
    else if constexpr (Op == Xor || Op == XorI)
        return a ^ b;
    else if constexpr (Op == Sll || Op == SllI)
        return a << (b & 63);
    else if constexpr (Op == Srl || Op == SrlI)
        return a >> (b & 63);
    else if constexpr (Op == Sra || Op == SraI)
        return static_cast<std::uint64_t>(sa >> (b & 63));
    else if constexpr (Op == CmpEq || Op == CmpEqI)
        return a == b;
    else if constexpr (Op == CmpLt || Op == CmpLtI)
        return sa < sb;
    else if constexpr (Op == CmpLe || Op == CmpLeI)
        return sa <= sb;
    else if constexpr (Op == CmpUlt || Op == CmpUltI)
        return a < b;
    else if constexpr (Op == S4Add)
        return (a << 2) + b;
    else if constexpr (Op == S8Add)
        return (a << 3) + b;
    else if constexpr (Op == CmovEq || Op == CmovNe || Op == CmovLt ||
                       Op == Ldi)
        return b;
    else if constexpr (Op == Mul)
        return a * b;
    else if constexpr (Op == Div)
        // x / -1 is -x, computed unsigned so INT64_MIN wraps to itself.
        return b == 0 ? 0
               : sb == -1 ? 0 - a
                          : static_cast<std::uint64_t>(sa / sb);
    else if constexpr (Op == FAdd)
        return fpResult(a, b, asDouble(a) + asDouble(b));
    else if constexpr (Op == FSub)
        return fpResult(a, b, asDouble(a) - asDouble(b));
    else if constexpr (Op == FMul)
        return fpResult(a, b, asDouble(a) * asDouble(b));
    else if constexpr (Op == FCmpLt)
        return asDouble(a) < asDouble(b);
    else if constexpr (Op == FCmpLe)
        return asDouble(a) <= asDouble(b);
    else if constexpr (Op == FCmpEq)
        return asDouble(a) == asDouble(b);
    else if constexpr (Op == CvtIF)
        return asBits(static_cast<double>(sa));
    else if constexpr (Op == CvtFI) {
        // NaN fails both comparisons.
        const double v = asDouble(a);
        if (v >= -0x1p63 && v < 0x1p63)
            return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
        return std::uint64_t{1} << 63;
    } else
        static_assert(Op != Op, "not a value opcode");
}

/**
 * Whether conditional branch Op is taken, or conditional move Op
 * moves, given ra's value a. Every other value opcode writes rc
 * unconditionally, so it is true for them.
 */
template <Opcode Op>
constexpr bool
condition(std::uint64_t a)
{
    using enum Opcode;
    const auto s = static_cast<std::int64_t>(a);
    if constexpr (Op == Beq || Op == CmovEq)
        return s == 0;
    else if constexpr (Op == Bne || Op == CmovNe)
        return s != 0;
    else if constexpr (Op == Blt || Op == CmovLt)
        return s < 0;
    else if constexpr (Op == Ble)
        return s <= 0;
    else if constexpr (Op == Bgt)
        return s > 0;
    else if constexpr (Op == Bge)
        return s >= 0;
    else
        return true;
}

/** A load or store's address: rb's value plus the immediate. */
constexpr Addr
effectiveAddress(std::uint64_t rb, std::int32_t imm)
{
    return rb + static_cast<std::uint64_t>(imm);
}

/** The value load t writes to rc: the low t.memBytes bytes of raw,
 *  sign- or zero-extended to 64 bits. Shifts, not common/bitutils'
 *  signExtend: inlined into FastForward::run, that one's assert led
 *  GCC 12 to merge the handlers' 56 dispatch jumps into 5. */
constexpr std::uint64_t
loadResult(const OpTraits &t, std::uint64_t raw)
{
    const unsigned unused = 64 - 8 * t.memBytes;
    const std::uint64_t high = raw << unused;
    return t.signExtends
               ? static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(high) >> unused)
               : high >> unused;
}

} // namespace specslice::isa

/**
 * The value opcodes, in enum order: integer ALU (register and
 * immediate forms), multiply, divide, floating point, conversions and
 * conditional moves. Each one's whole effect is
 * `if (condition<Op>(ra)) rc = result<Op>(ra, rb or imm)`, so an
 * executor expands X(name) into one specialised case per opcode.
 */
#define SS_ISA_VALUE_OPCODES(X)                                       \
    X(Add) X(Sub) X(And) X(Or) X(Xor) X(Sll) X(Srl) X(Sra)            \
    X(CmpEq) X(CmpLt) X(CmpLe) X(CmpUlt) X(S4Add) X(S8Add)            \
    X(CmovEq) X(CmovNe) X(CmovLt)                                     \
    X(AddI) X(SubI) X(AndI) X(OrI) X(XorI) X(SllI) X(SrlI) X(SraI)    \
    X(CmpEqI) X(CmpLtI) X(CmpLeI) X(CmpUltI) X(Ldi)                   \
    X(Mul) X(Div)                                                     \
    X(FAdd) X(FSub) X(FMul) X(FCmpLt) X(FCmpLe) X(FCmpEq)             \
    X(CvtIF) X(CvtFI)

/** The conditional branches, in enum order. */
#define SS_ISA_COND_BRANCH_OPCODES(X)                                 \
    X(Beq) X(Bne) X(Blt) X(Ble) X(Bgt) X(Bge)

#endif // SPECSLICE_ISA_SEMANTICS_HH
