/**
 * @file
 * The composite front-end branch predictor of Table 1: a 64 Kb YAGS
 * direction predictor, a 32 Kb cascaded indirect target predictor, a
 * 64-entry return address stack, and a perfect BTB for direct branches
 * (direct targets are available at decode in this machine, so the BTB
 * needs no explicit model). Global direction history and indirect path
 * history are updated speculatively at fetch and checkpointed per
 * control instruction for squash recovery.
 */

#ifndef SPECSLICE_BRANCH_PREDICTOR_UNIT_HH
#define SPECSLICE_BRANCH_PREDICTOR_UNIT_HH

#include "branch/history.hh"
#include "branch/indirect.hh"
#include "branch/ras.hh"
#include "branch/yags.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace specslice::branch
{

/** Everything needed to rewind the predictor's speculative state. */
struct SpecCheckpoint
{
    std::uint64_t ghist = 0;
    std::uint64_t phist = 0;
    ReturnAddressStack::Checkpoint ras;
};

/** Indexing context captured at prediction, passed back at update. */
struct PredictContext
{
    std::uint64_t ghist = 0;
    std::uint64_t phist = 0;
};

struct PredictorConfig
{
    YagsPredictor::Config yags;
    CascadedIndirectPredictor::Config indirect;
    unsigned rasEntries = 64;
    unsigned historyBits = 16;  ///< YAGS indexes 12, tags with the rest
    unsigned pathBits = 12;
};

class BranchPredictorUnit
{
  public:
    BranchPredictorUnit() : BranchPredictorUnit(PredictorConfig{}) {}
    explicit BranchPredictorUnit(const PredictorConfig &cfg);

    /** Checkpoint all speculative state (take before each control op). */
    SpecCheckpoint checkpoint() const;

    /** Restore a checkpoint (on squash). */
    void restore(const SpecCheckpoint &cp);

    /**
     * Predict a conditional branch at fetch and speculatively shift the
     * chosen direction into the history.
     *
     * @param pc branch PC
     * @param override_dir if non-negative, use this direction (0/1)
     *        instead of YAGS (slice-generated prediction from the
     *        correlator, or a perfect-mode oracle)
     * @param[out] ctx indexing context for the later update
     * @return the direction the front end will follow
     */
    bool predictCond(Addr pc, int override_dir, PredictContext &ctx);

    /**
     * Predict an indirect target at fetch; shifts path history.
     * @return predicted target (invalidAddr if no information).
     */
    Addr predictIndirect(Addr pc, PredictContext &ctx);

    /** Note a call at fetch (pushes the RAS). */
    void pushCall(Addr return_addr);

    /** Note a return at fetch. @return predicted return target. */
    Addr popReturn();

    /** Shift a resolved outcome into history after a squash-restore. */
    void shiftResolved(bool taken) { ghist_.shift(taken); }

    /** Shift a resolved indirect target after a squash-restore. */
    void shiftResolvedTarget(Addr target) { phist_.shift(target); }

    /** Train the direction predictor (resolved, correct-path). */
    void updateCond(Addr pc, const PredictContext &ctx, bool taken);

    /** Train the indirect predictor (resolved, correct-path). */
    void updateIndirect(Addr pc, const PredictContext &ctx, Addr target);

    /**
     * Replay a known conditional-branch outcome into the predictor
     * (checkpoint warm-up). Equivalent to a predict/update pair for a
     * correctly-predicted branch — tables train and history shifts —
     * but no prediction is consumed and no stats move, so a warmed
     * run's measured counters stay comparable to an unwarmed one's.
     */
    void warmCond(Addr pc, bool taken);

    /** Replay a known indirect-branch target (checkpoint warm-up). */
    void warmIndirect(Addr pc, Addr target);

    /** What would YAGS say, with no side effects? (profiling) */
    bool
    peekCond(Addr pc) const
    {
        return yags_.predict(pc, ghist_.value());
    }

    const StatGroup &stats() const { return stats_; }

  private:
    /** Handles into stats_, registered once at construction. */
    struct Handles
    {
        explicit Handles(StatGroup &g);
        Stat &condOverridden;
        Stat &condPredictions;
        Stat &indirectPredictions;
        Stat &condUpdates;
        Stat &indirectUpdates;
    };

    GlobalHistory ghist_;
    PathHistory phist_;
    YagsPredictor yags_;
    CascadedIndirectPredictor indirect_;
    ReturnAddressStack ras_;
    StatGroup stats_;
    Handles s_;
};

} // namespace specslice::branch

#endif // SPECSLICE_BRANCH_PREDICTOR_UNIT_HH
