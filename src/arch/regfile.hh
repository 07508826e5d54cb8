/**
 * @file
 * An architectural register file: 64 x 64-bit registers with r63
 * hardwired to zero. Each hardware thread context owns one ("a slice
 * has its own registers", Section 1).
 */

#ifndef SPECSLICE_ARCH_REGFILE_HH
#define SPECSLICE_ARCH_REGFILE_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "isa/opcodes.hh"
#include "isa/semantics.hh"

namespace specslice::arch
{

class RegFile
{
  public:
    RegFile() { regs_.fill(0); }

    std::uint64_t
    read(RegIndex r) const
    {
        return r == isa::regZero ? 0 : regs_[r];
    }

    void
    write(RegIndex r, std::uint64_t value)
    {
        if (r != isa::regZero)
            regs_[r] = value;
    }

    /** Read a register as an IEEE double bit pattern. */
    double readF(RegIndex r) const { return isa::asDouble(read(r)); }

    /** Write an IEEE double's bit pattern to a register. */
    void writeF(RegIndex r, double v) { write(r, isa::asBits(v)); }

    void reset() { regs_.fill(0); }

  private:
    std::array<std::uint64_t, isa::numRegs> regs_;
};

} // namespace specslice::arch

#endif // SPECSLICE_ARCH_REGFILE_HH
