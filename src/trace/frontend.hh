/**
 * @file
 * The trace frontend: the bridge between a workload and the sstr
 * record stream.
 *
 *  - emitWorkloadTrace() runs a workload through the functional tracer
 *    (arch::trace — bit-identical to both FastForward and the timing
 *    core's retirement stream) and writes every retired instruction as
 *    a trace record, under a header that names the workload.
 *
 *  - verifyTraceFidelity() re-executes the workload a trace names and
 *    checks every record against it.
 */

#ifndef SPECSLICE_TRACE_FRONTEND_HH
#define SPECSLICE_TRACE_FRONTEND_HH

#include <optional>
#include <string>

#include "arch/tracer.hh"
#include "sim/workload.hh"
#include "trace/format.hh"

namespace specslice::trace
{

/** What emitWorkloadTrace produced. */
struct EmitResult
{
    std::uint64_t records = 0;
    arch::FfStop stop = arch::FfStop::Budget;
};

/**
 * Execute wl functionally for up to max_insts instructions and write
 * an sstr trace to path: a header naming wl, then one record per
 * retired instruction.
 *
 * @param data_seed the seed wl was built with (recorded in the header
 *        so the workload can be rebuilt from it).
 * @return nullopt and set error on I/O failure.
 */
std::optional<EmitResult> emitWorkloadTrace(const sim::Workload &wl,
                                            std::uint64_t data_seed,
                                            std::uint64_t max_insts,
                                            const std::string &path,
                                            std::string &error);

/**
 * Cross-check the record stream against a functional re-execution of
 * wl: every stored record must match (pc, kind, taken outcome, target,
 * memory address) what the architectural machine actually does. The
 * caller rebuilds wl from the header (workloads::buildWorkload with
 * its name, scale and data seed); a wl whose name, scale or program
 * fingerprint differs from the header's is refused.
 *
 * @return the number of records checked, or nullopt (and set error
 *         naming the refusal or the first divergent record).
 */
std::optional<std::uint64_t>
verifyTraceFidelity(const std::string &path, const sim::Workload &wl,
                    std::string &error);

} // namespace specslice::trace

#endif // SPECSLICE_TRACE_FRONTEND_HH
