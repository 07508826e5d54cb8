/**
 * @file
 * The 64-entry unified prefetch/victim buffer of Table 1: a small fully
 * associative buffer checked in parallel with the caches. It holds both
 * lines evicted from the L1 (victims) and lines brought in by the
 * hardware stream prefetcher before their first demand use.
 *
 * Every operation is constant-time. An open-addressed index maps a
 * line to its slot (linear probing, backward-shift deletion, so no
 * tombstones); an intrusive doubly linked list orders the slots by
 * recency; a stack holds the free slots. The list's oldest end is the
 * LRU victim: each insert, refresh or lookup moves its slot to the
 * newest end, which orders the slots exactly as per-entry recency
 * stamps from one clock would.
 */

#ifndef SPECSLICE_MEM_VICTIM_BUFFER_HH
#define SPECSLICE_MEM_VICTIM_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace specslice::mem
{

class PrefetchVictimBuffer
{
  public:
    struct Entry
    {
        Addr lineAddr = 0;
        bool fromPrefetch = false;
        Cycle readyAt = 0;      ///< prefetched data arrives at this cycle
    };

    PrefetchVictimBuffer(unsigned entries, unsigned line_size);

    /**
     * Probe for the line containing addr, renewing its recency.
     * @return the entry, or nullptr on miss. The entry stays resident
     * (data also gets promoted into the L1 by the hierarchy).
     */
    Entry *lookup(Addr addr);

    /** Probe without state changes. */
    const Entry *peek(Addr addr) const;

    /** Insert a victim or prefetched line. A resident line only has
     *  its recency renewed; a full buffer evicts its LRU line. */
    void insert(Addr line_addr, bool from_prefetch, Cycle ready_at);

    /** Remove the line if present (promoted to L1). */
    void remove(Addr line_addr);

    unsigned size() const { return static_cast<unsigned>(slots_.size()); }

    /** @return number of currently valid entries. */
    unsigned
    population() const
    {
        return static_cast<unsigned>(slots_.size() - free_.size());
    }

  private:
    using SlotId = std::uint32_t;
    static constexpr SlotId noSlot = ~SlotId{0};

    /** One entry and its links in the recency list. */
    struct Slot
    {
        Entry entry;
        SlotId newer = noSlot;
        SlotId older = noSlot;
    };

    /** An index bucket: a resident line and its slot. */
    struct Bucket
    {
        Addr line = 0;
        SlotId slot = noSlot;  ///< noSlot: the bucket is empty
    };

    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~lineMask_;
    }

    /** Home bucket: the line number's low bits folded with the bits
     *  above them, so lines a multiple of the index size apart (such
     *  as the victims of one L1 set) do not all share a bucket. */
    std::size_t
    home(Addr line) const
    {
        const Addr n = line >> lineShift_;
        return (n ^ (n >> indexBits_)) & (index_.size() - 1);
    }

    /** The bucket holding line, or the empty bucket that ends its
     *  probe sequence. */
    std::size_t
    probe(Addr line) const
    {
        const std::size_t mask = index_.size() - 1;
        std::size_t b = home(line);
        while (index_[b].slot != noSlot && index_[b].line != line)
            b = (b + 1) & mask;
        return b;
    }

    void eraseBucket(std::size_t b);
    void unlink(SlotId s);
    void pushNewest(SlotId s);
    void touch(SlotId s);

    Addr lineMask_;
    unsigned lineShift_;
    unsigned indexBits_;
    SlotId newest_ = noSlot;
    SlotId oldest_ = noSlot;
    std::vector<Slot> slots_;
    /** Power of two, at least 4x the entries: probes stay short and
     *  always reach an empty bucket. */
    std::vector<Bucket> index_;
    std::vector<SlotId> free_;
};

} // namespace specslice::mem

#endif // SPECSLICE_MEM_VICTIM_BUFFER_HH
