/**
 * @file
 * Structured event export, the one way to trace a run: the pipeline,
 * slice and memory hardware record typed events into a bounded ring
 * buffer, which drains to Chrome trace_event JSON — open the file
 * directly in chrome://tracing or https://ui.perfetto.dev to see the
 * pipeline and slice timeline on per-event-kind tracks.
 *
 * Event semantics (one TraceEvent per occurrence, timestamped with
 * the simulation cycle):
 *
 *   Fetch / Issue / Retire / Squash  — one per dynamic instruction
 *       reaching that pipeline point (Fetch's arg: 1 when the fetch
 *       was wrong-path; Issue's arg: its latency).
 *   SliceFork / SliceEnd             — helper-thread lifetime
 *       (thread: the slice's context; seq: fork-point VN#;
 *       SliceFork's arg: the fork pc).
 *   CorrEntryCreate                  — branch-queue entry allocated
 *       at fork (pc: problem branch; arg: entry id).
 *   CorrPredCreate                   — prediction slot allocated when
 *       its PGI is fetched (arg: slot token).
 *   CorrPredBound                    — a main-thread branch matched
 *       the slot for the first time (seq: consumer VN#; arg: token).
 *   CorrPredUsed / CorrPredKilled    — exactly one of these closes
 *       every slot when it is deallocated (or at end-of-run drain):
 *       Used if some branch ever bound it, Killed otherwise (arg:
 *       token). Every CorrPredBound is therefore preceded by a
 *       CorrPredCreate and followed by exactly one terminal event
 *       for its token.
 *   CorrOverflow                     — a prediction was dropped
 *       because all slots of its entry were in use (arg: entry id).
 *   MemDMiss                         — a main or slice load missed
 *       the whole L1 level (L1D, prefetch/victim buffer and write
 *       buffer); a span of the hierarchy's latency for it (arg:
 *       effective address).
 *   MemIStall                        — fetch stalled on the
 *       instruction side; a span of the stall cycles (pc: fetch pc;
 *       no seq).
 *   MemWbFull                        — the write buffer refused a
 *       retiring store, which retries next cycle (arg: address).
 *
 * Most kinds mirror a counter: the events stamped after the warm-up
 * boundary sum to it exactly (README's event table names each
 * counter; EventCounters in tests/test_obs.cc checks them). A new
 * push site must keep that, so it goes where its counter is counted.
 *
 * The buffer is bounded: when full, the oldest event is overwritten
 * and dropped() counts the loss. It is not thread-safe; each
 * simulation run owns its buffer (runs never share one).
 */

#ifndef SPECSLICE_OBS_EVENTS_HH
#define SPECSLICE_OBS_EVENTS_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/types.hh"

namespace specslice::obs
{

enum class EventKind : std::uint8_t
{
    Fetch,
    Issue,
    Retire,
    Squash,
    SliceFork,
    SliceEnd,
    CorrEntryCreate,
    CorrPredCreate,
    CorrPredBound,
    CorrPredUsed,
    CorrPredKilled,
    CorrOverflow,
    /** One span per sampled timing region (sim::Simulator): ts is
     *  the region's base cycle, dur its cycle count, seq the
     *  instruction position the region started at, arg its index. */
    Region,
    MemDMiss,
    MemIStall,
    MemWbFull,
    NumKinds
};

const char *eventKindName(EventKind k);

struct TraceEvent
{
    Cycle cycle = 0;
    EventKind kind = EventKind::Fetch;
    ThreadId thread = 0;
    Addr pc = invalidAddr;
    SeqNum seq = invalidSeqNum;
    std::uint64_t arg = 0;  ///< kind-specific (token, id, flag)
    Cycle dur = 1;          ///< span length (1 for point events)

    bool operator==(const TraceEvent &) const = default;
};

class EventBuffer
{
  public:
    /** @param capacity max retained events (oldest dropped beyond). */
    explicit EventBuffer(std::size_t capacity = 1u << 18);

    /** Advance the timestamp subsequent events are stamped with.
     *  The owning core calls this once per simulated cycle. */
    void setNow(Cycle now) { now_ = now; }
    Cycle now() const { return now_; }

    /** Offset added to every pushed timestamp. Multi-run and sampled
     *  traces advance it between runs/regions so each segment's
     *  cycle-0 restart lands past the previous segment on the
     *  timeline instead of overlapping it. */
    void setTimeBase(Cycle base) { base_ = base; }
    Cycle timeBase() const { return base_; }

    /** Record an event at the current cycle; a span of dur cycles
     *  from it when dur > 1. */
    void
    push(EventKind kind, ThreadId thread, Addr pc, SeqNum seq,
         std::uint64_t arg = 0, Cycle dur = 1)
    {
        TraceEvent &e = slot();
        e.cycle = base_ + now_;
        e.kind = kind;
        e.thread = thread;
        e.pc = pc;
        e.seq = seq;
        e.arg = arg;
        e.dur = dur;
    }

    /** Record a span at an absolute (already based) timestamp. */
    void
    pushSpan(EventKind kind, Cycle ts, Cycle dur, ThreadId thread,
             Addr pc, SeqNum seq, std::uint64_t arg = 0)
    {
        TraceEvent &e = slot();
        e.cycle = ts;
        e.kind = kind;
        e.thread = thread;
        e.pc = pc;
        e.seq = seq;
        e.arg = arg;
        e.dur = dur ? dur : 1;
    }

    /** Retained event count (<= capacity). */
    std::size_t size() const { return size_; }
    /** Events lost to the capacity bound. */
    std::uint64_t dropped() const { return dropped_; }
    std::size_t capacity() const { return ring_.size(); }

    /** Visit retained events oldest first. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        std::size_t start = (head_ + ring_.size() - size_) %
                            ring_.size();
        for (std::size_t i = 0; i < size_; ++i)
            fn(ring_[(start + i) % ring_.size()]);
    }

    void clear();

    /**
     * Write the retained events as a Chrome trace_event JSON object
     * ({"traceEvents": [...]}). Every event kind gets its own named
     * track; the simulation cycle is the microsecond timestamp, and
     * pc/seq/thread/arg ride along in "args".
     */
    void writeChromeTrace(std::ostream &os) const;

  private:
    TraceEvent &
    slot()
    {
        TraceEvent &e = ring_[head_];
        head_ = (head_ + 1) % ring_.size();
        if (size_ < ring_.size())
            ++size_;
        else
            ++dropped_;
        return e;
    }

    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;   ///< next write position
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    Cycle now_ = 0;
    Cycle base_ = 0;
};

} // namespace specslice::obs

#endif // SPECSLICE_OBS_EVENTS_HH
