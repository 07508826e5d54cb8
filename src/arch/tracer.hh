/**
 * @file
 * A functional (timing-free) tracer: executes a program architecturally
 * and hands every retired instruction to a callback. This is the
 * substrate for trace-driven analyses — most importantly the automatic
 * slice-candidate analysis of Section 3.3 (which follows Roth & Sohi's
 * approach of selecting slices from an execution trace).
 */

#ifndef SPECSLICE_ARCH_TRACER_HH
#define SPECSLICE_ARCH_TRACER_HH

#include <functional>

#include "arch/exec.hh"
#include "arch/memimg.hh"
#include "arch/regfile.hh"
#include "common/types.hh"
#include "isa/program.hh"

namespace specslice::arch
{

/** One traced dynamic instruction. */
struct TraceEvent
{
    Addr pc = invalidAddr;
    const isa::Instruction *inst = nullptr;
    ExecResult result;
};

/**
 * Why a functional execution (arch::trace or FastForward::advance)
 * stopped. The instruction count alone cannot distinguish a program
 * that halted exactly at the budget from one that was cut off by it.
 */
enum class FfStop
{
    Budget,      ///< instruction budget exhausted, program still live
    Halted,      ///< executed a Halt
    Fault,       ///< architectural fault (e.g. null-page access)
    UnmappedPc,  ///< control flow left the program image
};

/** Stable lower-case name for diagnostics. */
const char *ffStopName(FfStop stop);

/** How a functional execution ended. */
struct TraceResult
{
    std::uint64_t count = 0;          ///< instructions executed
    FfStop reason = FfStop::Budget;
    /**
     * The next PC the program would execute (Budget/UnmappedPc), or
     * the PC of the halting/faulting instruction itself.
     */
    Addr finalPc = invalidAddr;
};

/**
 * Functionally execute program from entry_pc, invoking on_event per
 * instruction, until Halt, a fault, an unmapped PC, or max_insts.
 */
TraceResult trace(const isa::Program &program, Addr entry_pc,
                  MemoryImage &mem, std::uint64_t max_insts,
                  const std::function<void(const TraceEvent &)> &
                      on_event);

/** As above, but stepping a caller-owned register file (so the final
 *  architectural state is inspectable after the run). */
TraceResult trace(const isa::Program &program, Addr entry_pc,
                  RegFile &regs, MemoryImage &mem,
                  std::uint64_t max_insts,
                  const std::function<void(const TraceEvent &)> &
                      on_event);

} // namespace specslice::arch

#endif // SPECSLICE_ARCH_TRACER_HH
