/**
 * @file
 * The in-memory representation of a single static zsr instruction.
 */

#ifndef SPECSLICE_ISA_INSTRUCTION_HH
#define SPECSLICE_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace specslice::isa
{

/**
 * A decoded static instruction. Direct control-transfer targets are
 * stored as absolute addresses (the assembler resolves labels).
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    RegIndex ra = regZero;
    RegIndex rb = regZero;
    RegIndex rc = regZero;
    std::int32_t imm = 0;
    Addr target = invalidAddr;  ///< absolute target for direct transfers

    const OpTraits &traits() const { return opTraits(op); }

    bool isLoad() const { return traits().isLoad; }
    bool isStore() const { return traits().isStore; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isCondBranch() const { return traits().isCondBranch; }
    bool isControl() const { return isa::isControl(op); }
    bool isIndirect() const { return traits().isIndirect; }
    bool isCall() const { return traits().isCall; }
    bool isReturn() const { return traits().isReturn; }
    bool writesReg() const { return traits().writesRc; }

    /** @return true if this transfer's target is known statically. */
    bool
    hasStaticTarget() const
    {
        return (traits().isCondBranch || traits().isUncondDirect) &&
               target != invalidAddr;
    }

    bool operator==(const Instruction &o) const = default;

    /** @return a human-readable disassembly of this instruction. */
    std::string disassemble() const;
};

} // namespace specslice::isa

#endif // SPECSLICE_ISA_INSTRUCTION_HH
