/**
 * @file
 * The functional executor: applies one zsr instruction's architectural
 * effect, as isa/semantics.hh defines it, to registers and memory. The
 * timing model (src/core) decides *when* results become visible; this
 * module decides *what* they are.
 */

#ifndef SPECSLICE_ARCH_EXEC_HH
#define SPECSLICE_ARCH_EXEC_HH

#include "arch/memimg.hh"
#include "arch/regfile.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace specslice::arch
{

/** Outcome of functionally executing one instruction. */
struct ExecResult
{
    Addr nextPc = invalidAddr;   ///< PC of the next instruction
    bool taken = false;          ///< control transfer taken?
    Addr memAddr = invalidAddr;  ///< effective address for mem ops
    /** Value written to rc (wroteReg), or the data a store put in
     *  memory, truncated to the store width (isStore() ops). The
     *  retirement checker compares both against its reference. */
    std::uint64_t value = 0;
    bool wroteReg = false;       ///< rc was written
    bool fault = false;          ///< null-page access (terminates slices)
    bool halted = false;         ///< Halt executed
    bool sliceEnded = false;     ///< SliceEnd executed
};

/**
 * Functionally execute inst at pc against regs and mem.
 *
 * @param allow_stores if false, store opcodes fault (slices "perform no
 *        stores"; the assembler-level slice checker also rejects them,
 *        this is defense in depth).
 */
ExecResult execute(const isa::Instruction &inst, Addr pc, RegFile &regs,
                   MemoryImage &mem, bool allow_stores = true);

} // namespace specslice::arch

#endif // SPECSLICE_ARCH_EXEC_HH
