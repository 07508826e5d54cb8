#include "arch/exec.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "isa/semantics.hh"

namespace specslice::arch
{

using isa::Opcode;

ExecResult
execute(const isa::Instruction &inst, Addr pc, RegFile &regs,
        MemoryImage &mem, bool allow_stores)
{
    ExecResult res;
    res.nextPc = pc + isa::instBytes;

    const isa::OpTraits &t = inst.traits();
    const std::uint64_t a = regs.read(inst.ra);
    const std::uint64_t b = regs.read(inst.rb);
    const auto imm = static_cast<std::uint64_t>(inst.imm);

    auto writeRc = [&](std::uint64_t v) {
        regs.write(inst.rc, v);
        res.value = v;
        res.wroteReg = true;
    };

    switch (inst.op) {
#define SS_EXEC_VALUE(name)                                           \
      case Opcode::name:                                              \
        if (isa::condition<Opcode::name>(a))                          \
            writeRc(isa::result<Opcode::name>(                        \
                a, isa::opTraits(Opcode::name).hasImm ? imm : b));    \
        break;
      SS_ISA_VALUE_OPCODES(SS_EXEC_VALUE)
#undef SS_EXEC_VALUE

      // Memory.
      case Opcode::Ldq:
      case Opcode::Ldl:
      case Opcode::Ldbu:
      case Opcode::Prefetch:
        res.memAddr = isa::effectiveAddress(b, inst.imm);
        if (MemoryImage::faults(res.memAddr, t.memBytes))
            res.fault = true;
        else if (t.writesRc)  // a prefetch reads nothing
            writeRc(isa::loadResult(t, mem.read(res.memAddr, t.memBytes)));
        break;
      case Opcode::Stq:
      case Opcode::Stl:
      case Opcode::Stb:
        res.memAddr = isa::effectiveAddress(b, inst.imm);
        if (!allow_stores || MemoryImage::faults(res.memAddr, t.memBytes)) {
            res.fault = true;
            break;
        }
        mem.write(res.memAddr, a, t.memBytes);
        res.value = a & mask(8 * t.memBytes);
        break;

      // Control.
#define SS_EXEC_COND_BRANCH(name)                                     \
      case Opcode::name:                                              \
        res.taken = isa::condition<Opcode::name>(a);                  \
        break;
      SS_ISA_COND_BRANCH_OPCODES(SS_EXEC_COND_BRANCH)
#undef SS_EXEC_COND_BRANCH
      case Opcode::Br:  res.taken = true; break;
      case Opcode::Call:
        res.taken = true;
        writeRc(pc + isa::instBytes);
        break;
      case Opcode::Jmp:
      case Opcode::Ret:
        res.taken = true;
        res.nextPc = a;
        break;
      case Opcode::CallR:
        res.taken = true;
        res.nextPc = b;
        writeRc(pc + isa::instBytes);
        break;

      // Misc.
      case Opcode::Nop: break;
      case Opcode::Halt: res.halted = true; break;
      case Opcode::SliceEnd: res.sliceEnded = true; break;

      default:
        SS_PANIC("unimplemented opcode ",
                 static_cast<unsigned>(inst.op));
    }

    if (res.taken && inst.hasStaticTarget())
        res.nextPc = inst.target;

    return res;
}

} // namespace specslice::arch
