#include "branch/predictor_unit.hh"

namespace specslice::branch
{

BranchPredictorUnit::Handles::Handles(StatGroup &g)
    : condOverridden(g.scalar("cond_overridden")),
      condPredictions(g.scalar("cond_predictions")),
      indirectPredictions(g.scalar("indirect_predictions")),
      condUpdates(g.scalar("cond_updates")),
      indirectUpdates(g.scalar("indirect_updates"))
{
}

BranchPredictorUnit::BranchPredictorUnit(const PredictorConfig &cfg)
    : ghist_(cfg.historyBits),
      phist_(cfg.pathBits),
      yags_(cfg.yags),
      indirect_(cfg.indirect),
      ras_(cfg.rasEntries),
      stats_("bp"),
      s_(stats_)
{
}

SpecCheckpoint
BranchPredictorUnit::checkpoint() const
{
    return {ghist_.checkpoint(), phist_.checkpoint(), ras_.checkpoint()};
}

void
BranchPredictorUnit::restore(const SpecCheckpoint &cp)
{
    ghist_.restore(cp.ghist);
    phist_.restore(cp.phist);
    ras_.restore(cp.ras);
}

bool
BranchPredictorUnit::predictCond(Addr pc, int override_dir,
                                 PredictContext &ctx)
{
    ctx.ghist = ghist_.value();
    ctx.phist = phist_.value();

    bool taken;
    if (override_dir >= 0) {
        taken = override_dir != 0;
        ++s_.condOverridden;
    } else {
        taken = yags_.predict(pc, ctx.ghist);
    }
    ++s_.condPredictions;
    ghist_.shift(taken);
    return taken;
}

Addr
BranchPredictorUnit::predictIndirect(Addr pc, PredictContext &ctx)
{
    ctx.ghist = ghist_.value();
    ctx.phist = phist_.value();
    Addr target = indirect_.predict(pc, ctx.phist);
    ++s_.indirectPredictions;
    if (target != invalidAddr)
        phist_.shift(target);
    return target;
}

void
BranchPredictorUnit::pushCall(Addr return_addr)
{
    ras_.push(return_addr);
}

Addr
BranchPredictorUnit::popReturn()
{
    return ras_.pop();
}

void
BranchPredictorUnit::updateCond(Addr pc, const PredictContext &ctx,
                                bool taken)
{
    yags_.update(pc, ctx.ghist, taken);
    ++s_.condUpdates;
}

void
BranchPredictorUnit::updateIndirect(Addr pc, const PredictContext &ctx,
                                    Addr target)
{
    indirect_.update(pc, ctx.phist, target);
    ++s_.indirectUpdates;
}

void
BranchPredictorUnit::warmCond(Addr pc, bool taken)
{
    // Mirror a correctly-predicted branch's lifecycle: train against
    // the history the prediction would have been made under, then
    // shift the outcome in — exactly predictCond + updateCond minus
    // the stats.
    yags_.update(pc, ghist_.value(), taken);
    ghist_.shift(taken);
}

void
BranchPredictorUnit::warmIndirect(Addr pc, Addr target)
{
    indirect_.update(pc, phist_.value(), target);
    if (target != invalidAddr)
        phist_.shift(target);
}

} // namespace specslice::branch
