/**
 * @file
 * Fetch stage of the SMT core: ICOUNT-biased thread selection, branch
 * prediction with correlator override, slice forking at fork PCs, PGI
 * slot allocation, kill-PC notification, wrong-path walking, and
 * functional execute-at-fetch for correct-path instructions.
 */

#include <memory>

#include "core/smt_core.hh"

#include "common/logging.hh"
#include "isa/semantics.hh"

namespace specslice::core
{

namespace
{

/** Effectively-infinite stall (cleared by the next redirect). */
constexpr Cycle stallForever = ~Cycle{0} / 2;

} // namespace

ThreadId
SmtCore::pickFetchThread(bool slices_only) const
{
    ThreadId best = invalidThread;
    long best_score = 0;
    for (ThreadId tid = slices_only ? 1 : 0; tid < threads_.size();
         ++tid) {
        const ThreadCtx &t = threads_[tid];
        if (!t.active || t.fetchEnded || t.fetchStallUntil > cycle_)
            continue;
        long score = static_cast<long>(t.icount);
        if (tid == 0)
            score -= cfg_.mainThreadFetchBias;
        if (best == invalidThread || score < best_score) {
            best = tid;
            best_score = score;
        }
    }
    return best;
}

unsigned &
SmtCore::windowCounterFor(bool slice_thread)
{
    return (slice_thread && cfg_.dedicatedSliceResources)
               ? sliceWindowOccupancy_
               : windowOccupancy_;
}

void
SmtCore::fetchFrom(ThreadId tid)
{
    ThreadCtx &t = threads_[tid];
    unsigned fetched = 0;
    while (fetched < cfg_.fetchWidth) {
        if (!fetchOne(t, tid, fetched))
            break;
    }
}

void
SmtCore::fetchStage()
{
    if (cfg_.dedicatedSliceResources) {
        // Section 6.3's dedicated-hardware variant: the main thread
        // and one helper thread each get a full fetch port.
        ThreadCtx &m = threads_[0];
        if (m.active && !m.fetchEnded && m.fetchStallUntil <= cycle_)
            fetchFrom(0);
        ThreadId s = pickFetchThread(/*slices_only=*/true);
        if (s != invalidThread)
            fetchFrom(s);
        return;
    }

    ThreadId tid = pickFetchThread();
    if (tid != invalidThread)
        fetchFrom(tid);
}

bool
SmtCore::fetchOne(ThreadCtx &t, ThreadId tid, unsigned &fetched)
{
    if (t.fetchStallUntil > cycle_ || t.fetchEnded)
        return false;
    if (windowCounterFor(t.isSlice) >= cfg_.windowSize) {
        ++s_.fetchWindowStalls;
        return false;
    }
    cycleActive_ = true;

    Addr pc = t.fetchPc;

    // I-cache: charge extra latency when the fetch crosses into a line
    // that misses (the hit latency is part of the front-end depth).
    Addr line = pc & ~static_cast<Addr>(cfg_.memory.l1iLineSize - 1);
    if (line != t.fetchLine) {
        Cycle lat = hierarchy_.accessInst(pc, cycle_);
        t.fetchLine = line;
        if (lat > cfg_.memory.l1Latency) {
            const Cycle stall = lat - cfg_.memory.l1Latency;
            t.fetchStallUntil = cycle_ + stall;
            s_.icacheStallCycles += stall;
            if (events_) [[unlikely]]
                events_->push(obs::EventKind::MemIStall, tid, pc,
                              invalidSeqNum, 0, stall);
            return false;
        }
    }

    const isa::Instruction *si = program_.fetch(pc);
    if (!si) {
        if (t.onWrongPath) {
            // Wandered off mapped code: idle until the squash.
            t.fetchStallUntil = stallForever;
            return false;
        }
        if (t.isSlice) {
            terminateSliceFetch(t);
            return false;
        }
        SS_FATAL("main thread fetched unmapped pc 0x", std::hex, pc);
    }

    // Build the instruction in its window slot. Nothing below fetches
    // again, so the ring cannot grow and move it.
    const SeqNum seq = nextSeq_++;
    DynInst &di = inFlight_.claim(seq);
    di.recycle();
    di.seq = seq;
    di.thread = tid;
    di.pc = pc;
    di.si = si;
    di.wrongPath = t.onWrongPath;
    di.sliceThread = t.isSlice;
    di.fetchCycle = cycle_;
    di.eligibleAt = cycle_ + cfg_.frontEndDepth;

    bool end_fetch_group = false;

    // ---- functional execution (correct path only) ----
    if (!t.onWrongPath) {
        if (si->isStore() && !t.isSlice) {
            // Capture the old value for the reversal undo log.
            const Addr ea =
                isa::effectiveAddress(t.regs.read(si->rb), si->imm);
            const unsigned size = si->traits().memBytes;
            if (!arch::MemoryImage::faults(ea, size))
                storeUndoLog_.push_back(
                    {di.seq, ea, size, mem_.read(ea, size)});
        }
        di.fx = arch::execute(*si, pc, t.regs, mem_, !t.isSlice);
        t.funcPc = di.fx.nextPc;
        if (di.fx.fault && !t.isSlice)
            SS_FATAL("main thread fault at pc 0x", std::hex, pc, " (",
                     si->disassemble(), "), ea 0x", di.fx.memAddr);
        if (t.isSlice && si->isLoad())
            adjustSliceLoad(t, di);
    }

    // ---- next-PC selection / branch prediction ----
    Addr next_pc = pc + isa::instBytes;

    if (si->isCondBranch()) {
        di.isBranch = true;
        bool pred;
        if (t.isSlice) {
            // Slices use static prediction (backward taken); their
            // loops are terminated by the max iteration count.
            pred = si->target < pc;
            if (pred && countSliceIteration(t, pc)) {
                end_fetch_group = true;
                terminateSliceFetch(t);
            }
        } else {
            di.bpCheckpoint = bpu_.checkpoint();
            int override_dir = -1;
            if (perfect_.branchPerfect(pc) && !t.onWrongPath) {
                override_dir = di.fx.taken ? 1 : 0;
            } else {
                bool default_dir = bpu_.peekCond(pc);
                auto m = correlator_.onBranchFetch(pc, di.seq,
                                                   default_dir);
                if (m.overrideDir >= 0) {
                    override_dir = m.overrideDir;
                    di.usedCorrelator = true;
                    di.correlatorToken = m.token;
                } else if (m.matched) {
                    // Late binding: remember post-branch register
                    // state in case the slice later reverses us.
                    di.correlatorToken = m.token;
                    if (!t.onWrongPath)
                        di.regCheckpointAfter =
                            std::make_unique<arch::RegFile>(t.regs);
                }
            }
            pred = bpu_.predictCond(pc, override_dir, di.bpCtx);
        }
        di.predictedTaken = pred;
        next_pc = pred ? si->target : pc + isa::instBytes;
    } else if (si->traits().isUncondDirect) {
        // br/call: perfect BTB for direct branches.
        if (si->isCall() && !t.isSlice) {
            di.bpCheckpoint = bpu_.checkpoint();
            bpu_.pushCall(pc + isa::instBytes);
        }
        next_pc = si->target;
        // An unconditional backward br is the common slice back-edge
        // (exit conditions are often omitted entirely; the iteration
        // limit terminates the loop, Section 3.2).
        if (t.isSlice && si->target < pc && countSliceIteration(t, pc)) {
            end_fetch_group = true;
            terminateSliceFetch(t);
        }
    } else if (si->isReturn()) {
        di.isBranch = true;
        di.bpCheckpoint = bpu_.checkpoint();
        next_pc = t.isSlice ? invalidAddr : bpu_.popReturn();
    } else if (si->isIndirect()) {
        // jmp/callr.
        di.isBranch = true;
        di.bpCheckpoint = bpu_.checkpoint();
        if (perfect_.branchPerfect(pc) && !t.onWrongPath) {
            next_pc = di.fx.nextPc;
            di.bpCtx.ghist = 0;
            di.bpCtx.phist = 0;
        } else {
            next_pc = t.isSlice ? invalidAddr
                                : bpu_.predictIndirect(pc, di.bpCtx);
        }
        if (si->isCall() && !t.isSlice)
            bpu_.pushCall(pc + isa::instBytes);
    } else if (si->op == isa::Opcode::Halt) {
        if (!t.isSlice && !t.onWrongPath) {
            t.fetchEnded = true;
            end_fetch_group = true;
        } else if (t.onWrongPath) {
            t.fetchStallUntil = stallForever;
            end_fetch_group = true;
        } else {
            terminateSliceFetch(t);
            end_fetch_group = true;
        }
    } else if (si->op == isa::Opcode::SliceEnd) {
        // The main stream passes a slice_end like a nop, as the
        // functional engines do; a wrong path that strays into slice
        // code idles until its squash.
        if (t.isSlice) {
            terminateSliceFetch(t);
            end_fetch_group = true;
        } else if (t.onWrongPath) {
            t.fetchStallUntil = stallForever;
            end_fetch_group = true;
        }
    }

    di.predictedTarget = next_pc;

    // Unknown indirect target: stall fetch until the jump resolves.
    if (next_pc == invalidAddr) {
        t.fetchStallUntil = stallForever;
        end_fetch_group = true;
        ++s_.indirectFetchStalls;
    } else {
        t.fetchPc = next_pc;
    }

    // Correct-path divergence: prediction disagrees with the actual
    // outcome; everything fetched beyond here is wrong-path.
    if (!t.onWrongPath && !di.wrongPath) {
        if (next_pc != di.fx.nextPc)
            t.onWrongPath = true;
    }

    // ---- slice hardware interactions ----
    // A run with no slice loaded (baseline, limit, profile) skips the
    // fork-table lookup.
    if (!t.isSlice && sliceTable_.numSlices() != 0) {
        int slice_idx = sliceTable_.forkAt(pc);
        if (slice_idx >= 0)
            forkSlice(di, slice_idx);
        if (correlator_.isInterestingPc(pc))
            correlator_.onKillFetch(pc, di.seq);
    } else if (t.isSlice) {
        if (const slice::PgiSpec *spec = sliceTable_.pgiAt(pc)) {
            di.pgiToken =
                correlator_.onPgiFetch(*spec, t.forkSeq, di.seq);
            di.pgiInvert = spec->invert;
        }
    }

    // Slice faults terminate the slice (null-pointer dereference).
    if (t.isSlice && !di.wrongPath && di.fx.fault) {
        terminateSliceFetch(t);
        end_fetch_group = true;
        ++s_.sliceFaults;
    }

    // ---- dependence tracking & window accounting ----
    if (!di.wrongPath)
        setupDependencies(di, t);

    t.rob.push_back(seq);
    ++windowCounterFor(t.isSlice);
    ++t.icount;
    ++fetched;
    if (!di.wrongPath && di.pendingSrcs == 0)
        ready_.push_back(seq);

    if (t.isSlice) {
        ++s_.sliceFetched;
    } else {
        ++s_.mainFetched;
        if (di.wrongPath)
            ++s_.mainFetchedWrongpath;
    }

    if (events_) [[unlikely]]
        events_->push(obs::EventKind::Fetch, tid, di.pc, seq,
                      di.wrongPath);

    return !end_fetch_group;
}

void
SmtCore::forkSlice(DynInst &fork_inst, int slice_idx)
{
    const slice::SliceDescriptor &desc =
        sliceTable_.slice(static_cast<unsigned>(slice_idx));

    // Fork-confidence gating (Section 6.3): skip fork points whose
    // recent slices produced nothing the main thread consumed. Gated
    // points still fork occasionally so changed behaviour can
    // re-enable them.
    if (cfg_.forkConfidenceGating) {
        auto it = forkGate_.find(desc.forkPc);
        if (it != forkGate_.end() && !it->second.confidence.taken()) {
            if (++it->second.probe < 32) {
                ++s_.forksGated;
                return;
            }
            it->second.probe = 0;
        }
    }

    ThreadId free_tid = invalidThread;
    for (ThreadId tid = 1; tid < threads_.size(); ++tid) {
        if (!threads_[tid].active) {
            free_tid = tid;
            break;
        }
    }
    if (free_tid == invalidThread) {
        // "If no threads are idle, the fork request is ignored."
        ++s_.forksIgnored;
        return;
    }

    ThreadCtx &parent = threads_[fork_inst.thread];
    ThreadCtx &st = threads_[free_tid];
    SS_ASSERT(st.rob.empty(), "idle thread with in-flight insts");

    st.active = true;
    st.isSlice = true;
    st.sliceIdx = slice_idx;
    st.forkSeq = fork_inst.seq;
    st.loopIters = 0;
    st.fetchEnded = false;
    st.onWrongPath = false;
    st.fetchPc = desc.slicePc;
    st.funcPc = desc.slicePc;
    st.fetchLine = invalidAddr;
    st.fetchStallUntil = cycle_ + 1;
    st.icount = 0;
    st.lastWriter.fill(invalidSeqNum);
    st.regs.reset();
    // Register communication: copy the live-in map entries (Section
    // 4.3). The functional value at fork-fetch time approximates the
    // copy-at-rename semantics.
    for (RegIndex r : desc.liveIns)
        st.regs.write(r, parent.regs.read(r));

    fork_inst.forkedThread = free_tid;
    correlator_.onFork(desc, free_tid, fork_inst.seq);
    ++s_.forks;
    if (events_) [[unlikely]]
        events_->push(obs::EventKind::SliceFork, free_tid,
                      desc.slicePc, fork_inst.seq, desc.forkPc);
}

void
SmtCore::adjustSliceLoad(ThreadCtx &t, DynInst &di)
{
    // The functional model commits main-thread stores at fetch, which
    // is far earlier than a real machine commits them. A slice load
    // racing such a store must see the value as of its fork point, so
    // reconstruct it from the store-undo log: the oldest in-flight
    // main-thread store to this address that is younger than the fork
    // recorded exactly that value.
    const isa::OpTraits &load = di.si->traits();
    if (di.fx.fault || !load.writesRc)
        return;  // a prefetch has no value
    for (const StoreUndo &u : storeUndoLog_) {
        if (u.seq <= t.forkSeq)
            continue;
        if (u.addr != di.fx.memAddr)
            continue;
        if (u.size < load.memBytes)
            return;  // partial overlap: keep the raw value
        const std::uint64_t v = isa::loadResult(load, u.oldValue);
        t.regs.write(di.si->rc, v);
        di.fx.value = v;
        ++s_.sliceLoadsForkAdjusted;
        return;  // oldest matching entry = value as of the fork
    }
}

bool
SmtCore::countSliceIteration(ThreadCtx &t, Addr pc)
{
    const slice::SliceDescriptor &desc =
        sliceTable_.slice(static_cast<unsigned>(t.sliceIdx));
    if (pc != desc.loopBackEdgePc)
        return false;
    ++t.loopIters;
    return t.loopIters >= desc.maxLoopIters;
}

void
SmtCore::terminateSliceFetch(ThreadCtx &t)
{
    SS_ASSERT(t.isSlice, "terminating a non-slice thread");
    t.fetchEnded = true;
}

} // namespace specslice::core
