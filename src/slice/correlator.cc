#include "slice/correlator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace specslice::slice
{

PredictionCorrelator::Handles::Handles(StatGroup &g)
    : entriesEvictedLive(g.scalar("entries_evicted_live")),
      entriesAllocated(g.scalar("entries_allocated")),
      pgiFetchNoEntry(g.scalar("pgi_fetch_no_entry")),
      predictionsDroppedDead(g.scalar("predictions_dropped_dead")),
      predictionsDroppedFull(g.scalar("predictions_dropped_full")),
      killsAppliedFromDebt(g.scalar("kills_applied_from_debt")),
      predictionsAllocated(g.scalar("predictions_allocated")),
      predictionsGenerated(g.scalar("predictions_generated")),
      matchesFull(g.scalar("matches_full")),
      matchesLate(g.scalar("matches_late")),
      matchesConflict(g.scalar("matches_conflict")),
      killsLoop(g.scalar("kills_loop")),
      killsPending(g.scalar("kills_pending")),
      killsSlice(g.scalar("kills_slice")),
      entriesSquashed(g.scalar("entries_squashed")),
      killsRestored(g.scalar("kills_restored")),
      consumersSquashed(g.scalar("consumers_squashed")),
      slotsSliceSquashed(g.scalar("slots_slice_squashed")),
      slotsRetired(g.scalar("slots_retired"))
{
}

PredictionCorrelator::PredictionCorrelator(const Config &cfg)
    : cfg_(cfg), stats_("correlator"), s_(stats_)
{
}

void
PredictionCorrelator::indexEntry(const Entry &e)
{
    for (Addr pc : {e.branchPc, e.loopKillPc, e.sliceKillPc}) {
        if (pc == invalidAddr)
            continue;
        auto &ids = pcIndex_[pc];
        if (std::find(ids.begin(), ids.end(), e.id) == ids.end())
            ids.push_back(e.id);
    }
}

void
PredictionCorrelator::unindexEntry(const Entry &e)
{
    for (Addr pc : {e.branchPc, e.loopKillPc, e.sliceKillPc}) {
        if (pc == invalidAddr)
            continue;
        std::vector<std::uint64_t> *ids = pcIndex_.find(pc);
        if (!ids)
            continue;
        // An emptied list stays, keeping its capacity for the next
        // fork: the keys are the slices' static branch and kill PCs.
        ids->erase(std::remove(ids->begin(), ids->end(), e.id),
                   ids->end());
    }
}

void
PredictionCorrelator::emitSlotEvent(obs::EventKind kind, const Entry &e,
                                    const Slot &s, SeqNum seq)
{
    if (events_)
        events_->push(kind, e.thread, e.branchPc, seq, s.token);
}

void
PredictionCorrelator::emitSlotTerminal(const Entry &e, const Slot &s)
{
    emitSlotEvent(s.everMatched ? obs::EventKind::CorrPredUsed
                                : obs::EventKind::CorrPredKilled,
                  e, s, s.pgiSeq);
}

void
PredictionCorrelator::freeEntry(std::uint64_t id)
{
    Entry *e = entries_.find(id);
    if (!e)
        return;
    for (const Slot &s : e->slots) {
        emitSlotTerminal(*e, s);
        tokenIndex_.erase(s.token);
    }
    unindexEntry(*e);
    entries_.erase(id);
}

void
PredictionCorrelator::maybeEvictForCapacity()
{
    if (entries_.size() < cfg_.entries)
        return;
    // Prefer the oldest fully-drained entry; otherwise evict the oldest
    // entry outright (a real machine would simply lose correlation).
    std::uint64_t victim = 0;
    entries_.forEach([&](Entry &e) {
        if (!victim && e.sliceDone && e.slots.empty())
            victim = e.id;
    });
    if (victim) {
        freeEntry(victim);
        return;
    }
    ++s_.entriesEvictedLive;
    freeEntry(entries_.oldest()->id);
}

void
PredictionCorrelator::onFork(const SliceDescriptor &desc, ThreadId thread,
                             SeqNum fork_seq)
{
    // One branch-queue entry per distinct problem branch.
    for (const PgiSpec &p : desc.pgis) {
        if (findEntry(fork_seq, p.problemBranchPc))
            continue;  // a second PGI feeding the same branch
        maybeEvictForCapacity();
        const std::uint64_t id = nextEntryId_++;
        Entry &e = entries_.claim(id);
        e.recycle();
        e.id = id;
        e.branchPc = p.problemBranchPc;
        e.loopKillPc = p.loopKillPc;
        e.sliceKillPc = p.sliceKillPc;
        e.skipFirstLoopKill = p.loopKillSkipFirst;
        e.forkSeq = fork_seq;
        e.thread = thread;
        indexEntry(e);
        ++s_.entriesAllocated;
        if (events_)
            events_->push(obs::EventKind::CorrEntryCreate, thread,
                          e.branchPc, fork_seq, e.id);
    }
}

PredictionCorrelator::Entry *
PredictionCorrelator::findEntry(SeqNum fork_seq, Addr branch_pc)
{
    const std::vector<std::uint64_t> *ids = pcIndex_.find(branch_pc);
    if (!ids)
        return nullptr;
    for (std::uint64_t id : *ids) {
        Entry *e = entries_.find(id);
        SS_ASSERT(e, "pc index references a freed entry");
        if (e->forkSeq == fork_seq && e->branchPc == branch_pc)
            return e;
    }
    return nullptr;
}

std::uint64_t
PredictionCorrelator::onPgiFetch(const PgiSpec &spec, SeqNum fork_seq,
                                 SeqNum pgi_seq)
{
    Entry *e = findEntry(fork_seq, spec.problemBranchPc);
    if (!e) {
        ++s_.pgiFetchNoEntry;
        return 0;
    }
    if (e->deadSeq != invalidSeqNum) {
        // The main thread already left this slice's valid region.
        ++s_.predictionsDroppedDead;
        return 0;
    }
    if (e->overflowed || e->slots.size() >= cfg_.predsPerBranch) {
        e->overflowed = true;
        ++s_.predictionsDroppedFull;
        if (events_)
            events_->push(obs::EventKind::CorrOverflow, e->thread,
                          e->branchPc, pgi_seq, e->id);
        return 0;
    }
    Slot s;
    s.token = nextToken_++;
    s.pgiSeq = pgi_seq;
    if (!e->pendingKills.empty()) {
        // A kill for this slot's branch instance already passed by:
        // the slice is behind. Apply it now so alignment holds.
        s.killed = true;
        s.killerSeq = e->pendingKills.front();
        e->pendingKills.pop_front();
        ++s_.killsAppliedFromDebt;
    }
    e->slots.push_back(s);
    tokenIndex_.insert(s.token, e->id);
    ++s_.predictionsAllocated;
    emitSlotEvent(obs::EventKind::CorrPredCreate, *e, s, pgi_seq);
    return s.token;
}

PredictionCorrelator::Slot *
PredictionCorrelator::findSlot(std::uint64_t token, Entry **entry_out)
{
    const std::uint64_t *id = tokenIndex_.find(token);
    if (!id)
        return nullptr;
    Entry *e = entries_.find(*id);
    if (!e)
        return nullptr;
    for (Slot &s : e->slots) {
        if (s.token == token) {
            if (entry_out)
                *entry_out = e;
            return &s;
        }
    }
    return nullptr;
}

PredictionCorrelator::LateResult
PredictionCorrelator::onPgiExecute(std::uint64_t token, bool dir)
{
    LateResult res;
    Slot *s = findSlot(token, nullptr);
    if (!s)
        return res;  // slot evicted/squashed in the meantime
    s->computed = true;
    s->dir = dir;
    ++s_.predictionsGenerated;
    if (s->consumerSeq != invalidSeqNum) {
        res.hasConsumer = true;
        res.consumerSeq = s->consumerSeq;
        res.usedDir = s->consumerUsedDir;
        res.computedDir = dir;
    }
    return res;
}

PredictionCorrelator::MatchResult
PredictionCorrelator::onBranchFetch(Addr pc, SeqNum branch_seq,
                                    bool default_dir)
{
    MatchResult res;
    const std::vector<std::uint64_t> *ids = pcIndex_.find(pc);
    if (!ids)
        return res;

    // The pc's id list is in allocation (fork) order: the oldest
    // in-flight instance of the slice owns the branch first.
    for (std::uint64_t id : *ids) {
        Entry &e = *entries_.find(id);
        if (e.branchPc != pc)
            continue;  // pc is only a kill PC for this entry
        // Head = oldest prediction not yet killed.
        for (Slot &s : e.slots) {
            if (s.killed)
                continue;
            res.matched = true;
            res.token = s.token;
            if (s.computed) {
                res.overrideDir = s.dir ? 1 : 0;
                if (!s.everMatched)
                    emitSlotEvent(obs::EventKind::CorrPredBound, e, s,
                                  branch_seq);
                s.everMatched = true;
                ++s_.matchesFull;
            } else if (s.consumerSeq == invalidSeqNum) {
                // Late prediction: bind this branch instance; the
                // traditional predictor supplies the direction.
                s.consumerSeq = branch_seq;
                s.consumerUsedDir = default_dir;
                if (!s.everMatched)
                    emitSlotEvent(obs::EventKind::CorrPredBound, e, s,
                                  branch_seq);
                s.everMatched = true;
                ++s_.matchesLate;
            } else {
                // Head already has a consumer bound and hasn't been
                // killed yet: no help for this instance.
                res.matched = false;
                res.token = 0;
                ++s_.matchesConflict;
            }
            return res;
        }
        // All predictions of the matching entry are killed; fall
        // through to a younger entry for the same branch, if any.
    }
    return res;
}

void
PredictionCorrelator::onKillFetch(Addr pc, SeqNum kill_seq)
{
    const std::vector<std::uint64_t> *ids = pcIndex_.find(pc);
    if (!ids)
        return;
    // Kills never add or remove entries, so the list can be walked
    // in place.
    for (std::uint64_t id : *ids) {
        Entry *ep = entries_.find(id);
        if (!ep)
            continue;
        Entry &e = *ep;
        if (e.loopKillPc == pc) {
            if (e.skipFirstLoopKill &&
                e.firstLoopKillSeq == invalidSeqNum) {
                e.firstLoopKillSeq = kill_seq;
            } else {
                bool applied = false;
                for (Slot &s : e.slots) {
                    if (!s.killed) {
                        s.killed = true;
                        s.killerSeq = kill_seq;
                        ++s_.killsLoop;
                        applied = true;
                        break;
                    }
                }
                if (!applied) {
                    // No slot yet: remember the kill as debt so the
                    // next allocation stays aligned.
                    e.pendingKills.push_back(kill_seq);
                    ++s_.killsPending;
                }
            }
        }
        if (e.sliceKillPc == pc) {
            for (Slot &s : e.slots) {
                if (!s.killed) {
                    s.killed = true;
                    s.killerSeq = kill_seq;
                    ++s_.killsSlice;
                }
            }
            if (e.deadSeq == invalidSeqNum)
                e.deadSeq = kill_seq;
        }
    }
}

void
PredictionCorrelator::squashMain(SeqNum squash_seq)
{
    toFree_.clear();
    entries_.forEach([&](Entry &e) {
        if (e.forkSeq > squash_seq) {
            // The fork point itself was squashed.
            toFree_.push_back(e.id);
            ++s_.entriesSquashed;
            return;
        }
        if (e.firstLoopKillSeq != invalidSeqNum &&
            e.firstLoopKillSeq > squash_seq)
            e.firstLoopKillSeq = invalidSeqNum;
        if (e.deadSeq != invalidSeqNum && e.deadSeq > squash_seq)
            e.deadSeq = invalidSeqNum;
        while (!e.pendingKills.empty() &&
               e.pendingKills.back() > squash_seq)
            e.pendingKills.pop_back();
        for (Slot &s : e.slots) {
            if (s.killed && s.killerSeq > squash_seq) {
                s.killed = false;
                s.killerSeq = invalidSeqNum;
                ++s_.killsRestored;
            }
            if (s.consumerSeq != invalidSeqNum &&
                s.consumerSeq > squash_seq) {
                s.consumerSeq = invalidSeqNum;
                ++s_.consumersSquashed;
            }
        }
    });
    for (std::uint64_t id : toFree_)
        freeEntry(id);
}

void
PredictionCorrelator::squashSlice(SeqNum fork_seq, SeqNum younger_than)
{
    entries_.forEach([&](Entry &e) {
        if (e.forkSeq != fork_seq)
            return;
        while (!e.slots.empty() && e.slots.back().pgiSeq > younger_than &&
               !e.slots.back().computed &&
               e.slots.back().consumerSeq == invalidSeqNum &&
               !e.slots.back().killed) {
            emitSlotTerminal(e, e.slots.back());
            tokenIndex_.erase(e.slots.back().token);
            e.slots.pop_back();
            ++s_.slotsSliceSquashed;
        }
    });
}

bool
PredictionCorrelator::allEntriesDead(SeqNum fork_seq,
                                     SeqNum retired_bound) const
{
    bool any = false;
    bool all_dead = true;
    entries_.forEach([&](const Entry &e) {
        if (e.forkSeq != fork_seq)
            return;
        any = true;
        if (e.deadSeq == invalidSeqNum || e.deadSeq > retired_bound)
            all_dead = false;
    });
    return any && all_dead;
}

unsigned
PredictionCorrelator::consumedCount(SeqNum fork_seq) const
{
    unsigned n = 0;
    entries_.forEach([&](const Entry &e) {
        if (e.forkSeq != fork_seq)
            return;
        for (const Slot &s : e.slots)
            n += s.everMatched ||
                 s.consumerSeq != invalidSeqNum;
    });
    return n;
}

void
PredictionCorrelator::onSliceDone(SeqNum fork_seq)
{
    entries_.forEach([&](Entry &e) {
        if (e.forkSeq == fork_seq)
            e.sliceDone = true;
    });
}

void
PredictionCorrelator::retireUpTo(SeqNum bound)
{
    // Baseline, limit and profiling runs never fork, so the branch
    // queue stays empty and every stepped cycle returns here.
    if (entries_.size() == 0)
        return;
    toFree_.clear();
    entries_.forEach([&](Entry &e) {
        while (!e.slots.empty()) {
            Slot &s = e.slots.front();
            if (s.killed && s.killerSeq <= bound) {
                emitSlotTerminal(e, s);
                tokenIndex_.erase(s.token);
                e.slots.pop_front();
                ++s_.slotsRetired;
            } else {
                break;
            }
        }
        bool dead_retired =
            e.deadSeq != invalidSeqNum && e.deadSeq <= bound;
        if ((e.sliceDone || dead_retired) && e.slots.empty() &&
            e.forkSeq <= bound)
            toFree_.push_back(e.id);
    });
    for (std::uint64_t id : toFree_)
        freeEntry(id);
}

void
PredictionCorrelator::drainEvents()
{
    if (!events_)
        return;
    entries_.forEach([&](const Entry &e) {
        for (const Slot &s : e.slots)
            emitSlotTerminal(e, s);
    });
}

} // namespace specslice::slice
