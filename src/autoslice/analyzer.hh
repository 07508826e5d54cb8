/**
 * @file
 * Automatic slice-candidate analysis (the Section 3.3 direction,
 * following Roth & Sohi's trace-based slice selection): given a
 * problem instruction, walk backward through an execution trace to
 * find the instructions its outcome actually depends on, then report
 * — per candidate fork distance — the numbers a slice constructor
 * needs: static/dynamic slice size, live-in registers, and the
 * fetch-constrained dataflow height (the "approximate benefit metric"
 * the paper cites).
 *
 * This is an *analysis*, not a code generator: slice optimization
 * ("automated slice optimization is important future work", end of
 * Section 3.3) and emission remain manual, but the analyzer rediscovers
 * the shapes of the paper's hand slices — see
 * examples/slice_candidates.
 */

#ifndef SPECSLICE_AUTOSLICE_ANALYZER_HH
#define SPECSLICE_AUTOSLICE_ANALYZER_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "arch/memimg.hh"
#include "arch/tracer.hh"
#include "common/types.hh"
#include "isa/program.hh"

namespace specslice::autoslice
{

struct AnalyzerOptions
{
    /** Functional instructions to trace. */
    std::uint64_t traceInsts = 400'000;
    /** Max dynamic instructions walked backward per instance. */
    unsigned windowInsts = 256;
    /** Dynamic instances of the problem PC to analyze (sampled). */
    unsigned maxInstances = 256;
    /** Follow memory dependences (store -> load) inside the window. */
    bool followMemory = true;
};

/** Slice statistics at one candidate fork distance. */
struct ForkCandidate
{
    /** Dynamic instructions between fork point and the problem
     *  instruction (the latency-tolerance lever of Section 3.2). */
    unsigned hoistDistance = 0;
    /** The static PC at this distance (a fork point must be a fixed
     *  instruction); invalidAddr if instances disagree. */
    Addr forkPc = invalidAddr;
    /** How many analyzed instances shared that PC. */
    unsigned instancesAgreeing = 0;
    /** Mean dynamic slice length from fork to problem instruction. */
    double avgDynamicSliceLength = 0;
    /** Registers the slice would need copied at fork (union). */
    std::set<RegIndex> liveIns;
};

/** Full analysis of one problem instruction. */
struct SliceAnalysis
{
    Addr problemPc = invalidAddr;
    unsigned instancesAnalyzed = 0;

    /** Dynamic instructions the functional trace covered. */
    std::uint64_t traceInsts = 0;
    /** Why the trace ended. A Fault/UnmappedPc stop means the program
     *  died before the requested budget and the analysis below covers
     *  a truncated trace. */
    arch::FfStop traceStop = arch::FfStop::Budget;

    /** Static PCs that appeared in any instance's backward slice. */
    std::set<Addr> staticSlice;
    /** Mean dynamic slice length over the full window. */
    double avgDynamicSliceLength = 0;
    /** Mean dataflow height (longest dependence chain, in
     *  instructions) — the fetch-constrained benefit metric. */
    double avgDataflowHeight = 0;
    /** Mean window instructions (slice density denominator). */
    double avgWindowLength = 0;

    /** Candidates at exponentially spaced hoist distances. */
    std::vector<ForkCandidate> forkCandidates;

    /** Dynamic slice instructions / window instructions: how much of
     *  the program the slice skips (smaller = better). */
    double
    sliceDensity() const
    {
        return avgWindowLength > 0
                   ? avgDynamicSliceLength / avgWindowLength
                   : 0.0;
    }

    /** Human-readable report. */
    std::string report(const isa::Program &program) const;
};

/**
 * Analyze the backward slices of problem_pc over a functional trace of
 * the program. The memory image is consumed (re-initialize per call).
 */
SliceAnalysis analyzeProblemInstruction(const isa::Program &program,
                                        Addr entry_pc,
                                        arch::MemoryImage &mem,
                                        Addr problem_pc,
                                        const AnalyzerOptions &opts = {});

} // namespace specslice::autoslice

#endif // SPECSLICE_AUTOSLICE_ANALYZER_HH
