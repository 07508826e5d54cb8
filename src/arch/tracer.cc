#include "arch/tracer.hh"

#include "common/logging.hh"

namespace specslice::arch
{

const char *
ffStopName(FfStop stop)
{
    switch (stop) {
      case FfStop::Budget:
        return "budget";
      case FfStop::Halted:
        return "halted";
      case FfStop::Fault:
        return "fault";
      case FfStop::UnmappedPc:
        return "unmapped_pc";
    }
    return "unknown";
}

TraceResult
trace(const isa::Program &program, Addr entry_pc, RegFile &regs,
      MemoryImage &mem, std::uint64_t max_insts,
      const std::function<void(const TraceEvent &)> &on_event)
{
    Addr pc = entry_pc;
    TraceResult res;

    while (res.count < max_insts) {
        const isa::Instruction *inst = program.fetch(pc);
        if (!inst) {
            res.reason = FfStop::UnmappedPc;
            res.finalPc = pc;
            return res;
        }

        TraceEvent ev;
        ev.pc = pc;
        ev.inst = inst;
        ev.result = execute(*inst, pc, regs, mem, true);
        ++res.count;
        on_event(ev);

        if (ev.result.halted) {
            res.reason = FfStop::Halted;
            res.finalPc = pc;
            return res;
        }
        if (ev.result.fault) {
            res.reason = FfStop::Fault;
            res.finalPc = pc;
            return res;
        }
        pc = ev.result.nextPc;
    }
    res.reason = FfStop::Budget;
    res.finalPc = pc;
    return res;
}

TraceResult
trace(const isa::Program &program, Addr entry_pc, MemoryImage &mem,
      std::uint64_t max_insts,
      const std::function<void(const TraceEvent &)> &on_event)
{
    RegFile regs;
    return trace(program, entry_pc, regs, mem, max_insts, on_event);
}

} // namespace specslice::arch
