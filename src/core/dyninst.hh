/**
 * @file
 * A dynamic (in-flight) instruction. The functional outcome is computed
 * at fetch for correct-path instructions (execute-at-fetch model); the
 * timing fields decide when that outcome becomes architecturally and
 * microarchitecturally visible.
 */

#ifndef SPECSLICE_CORE_DYNINST_HH
#define SPECSLICE_CORE_DYNINST_HH

#include <memory>
#include <vector>

#include "arch/exec.hh"
#include "arch/regfile.hh"
#include "branch/predictor_unit.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace specslice::core
{

/**
 * A dynamic instruction's plain data: everything but the two buffers
 * DynInst adds, so a recycled window slot resets it in one assignment.
 */
struct DynInstData
{
    SeqNum seq = invalidSeqNum;     ///< Von Neumann number
    ThreadId thread = invalidThread;
    Addr pc = invalidAddr;
    const isa::Instruction *si = nullptr;  ///< null for unmapped wrong path

    bool wrongPath = false;
    bool sliceThread = false;

    // Timing.
    Cycle fetchCycle = 0;
    Cycle eligibleAt = 0;   ///< earliest issue cycle (front-end depth)
    bool issued = false;
    bool completed = false;
    Cycle completeAt = 0;

    // Dependence tracking (timing only; values are functional).
    unsigned pendingSrcs = 0;
    /** lastWriter value displaced by this inst (squash rollback). */
    SeqNum prevWriter = invalidSeqNum;
    bool setsLastWriter = false;

    // Functional outcome (valid when !wrongPath).
    arch::ExecResult fx;

    // Branch bookkeeping.
    bool isBranch = false;
    bool predictedTaken = false;
    Addr predictedTarget = invalidAddr; ///< PC fetch followed after this
    bool mispredictPending = false;     ///< followed path != actual path
    branch::SpecCheckpoint bpCheckpoint;
    branch::PredictContext bpCtx;
    bool usedCorrelator = false;        ///< direction overridden by slice
    std::uint64_t correlatorToken = 0;

    // Slice bookkeeping.
    std::uint64_t pgiToken = 0;     ///< this is a PGI (slice thread)
    bool pgiInvert = false;
    ThreadId forkedThread = invalidThread;  ///< fork point: thread forked
};

struct DynInst : DynInstData
{
    /** VN#s of the instructions waiting on this one's result. */
    std::vector<SeqNum> dependents;
    /** Register state just after this branch (late-binding reversal). */
    std::unique_ptr<arch::RegFile> regCheckpointAfter;

    /** Reset to a fresh instruction in a recycled window slot,
     *  keeping the dependents buffer's capacity. Copies from a
     *  constant rather than assigning DynInstData{}: GCC builds that
     *  temporary on the stack with rep stos and reloads it with wide
     *  loads the stores cannot forward to, while the constant sits in
     *  read-only data that no pending store is writing. */
    void
    recycle()
    {
        static constexpr DynInstData fresh{};
        static_cast<DynInstData &>(*this) = fresh;
        dependents.clear();
        regCheckpointAfter.reset();
    }
};

} // namespace specslice::core

#endif // SPECSLICE_CORE_DYNINST_HH
