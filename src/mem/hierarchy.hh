/**
 * @file
 * The complete memory hierarchy of Table 1: split 64KB L1I / 64KB 2-way
 * L1D with 64B lines and 3-cycle access, a unified 2MB 4-way L2 with
 * 128B lines and 6-cycle access, 100-cycle minimum memory latency, a
 * 64-entry unified prefetch/victim buffer checked in parallel with the
 * caches, a hardware stream prefetcher, and a write buffer for retired
 * store misses. Request bandwidth to memory is modeled (writeback
 * bandwidth is not, matching the paper).
 */

#ifndef SPECSLICE_MEM_HIERARCHY_HH
#define SPECSLICE_MEM_HIERARCHY_HH

#include "common/open_hash.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/stream_prefetcher.hh"
#include "mem/victim_buffer.hh"
#include "mem/write_buffer.hh"

namespace specslice::mem
{

/** Configuration mirroring Table 1's "Caches" and "Prefetch" rows. */
struct MemConfig
{
    std::size_t l1iSize = 64 * 1024;
    unsigned l1iAssoc = 2;
    unsigned l1iLineSize = 64;
    std::size_t l1dSize = 64 * 1024;
    unsigned l1dAssoc = 2;
    unsigned l1dLineSize = 64;
    Cycle l1Latency = 3;        ///< includes address generation
    std::size_t l2Size = 2 * 1024 * 1024;
    unsigned l2Assoc = 4;
    unsigned l2LineSize = 128;
    Cycle l2Latency = 6;
    Cycle memLatency = 100;     ///< minimum memory latency
    Cycle memBusOccupancy = 4;  ///< request bandwidth model
    unsigned pvBufEntries = 64;
    unsigned writeBufEntries = 16;
    unsigned prefetchStreams = 8;
    unsigned prefetchDegree = 2;
    bool sequentialPrefetch = true;
    bool prefetcherEnabled = true;
};

/** What happened on a data access (for stats and covered-miss credit). */
struct AccessResult
{
    Cycle latency = 0;
    bool l1Hit = false;
    bool pvBufHit = false;
    bool l2Hit = false;
    bool memAccess = false;
    /** Main-thread hit on an untouched slice-prefetched line. */
    bool coveredBySlice = false;
    bool writeBufferHit = false;
};

class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemConfig &cfg);

    /**
     * Perform a timed data access (load or store). Mutates cache state.
     *
     * @param addr effective address
     * @param is_store store (write-allocate, marks line dirty)
     * @param is_slice_thread access issued by a helper thread
     * @param now current cycle
     */
    AccessResult accessData(Addr addr, bool is_store, bool is_slice_thread,
                            Cycle now);

    /**
     * Timed instruction fetch of the line containing pc.
     * @return latency in cycles (l1Latency on hit).
     */
    Cycle accessInst(Addr pc, Cycle now);

    /**
     * Store execute path: probe the L1 (marking the line dirty on hit)
     * without blocking the pipeline. Misses are completed at
     * retirement via the write buffer (see retireStore()).
     */
    AccessResult accessStore(Addr addr, Cycle now);

    /**
     * Store-retirement path: store misses go to the write buffer.
     * @return true if accepted, false if the buffer is full.
     */
    bool retireStore(Addr addr, Cycle now);

    /** Background maintenance (write-buffer drain, expired-fill
     *  sweep). Keyed on `now` alone, so the core may skip quiet
     *  cycles between calls. */
    void tick(Cycle now);

    /**
     * Functional cache warm-up: install the line containing addr into
     * the L1D and L2 as if an access in the (fast-forwarded) past had
     * brought it in. Touches tags/LRU/dirty state only — no stats, no
     * latency or bandwidth model, no prefetcher training — so a
     * warmed hierarchy's counters stay comparable to a naturally
     * warmed one. Replay accesses oldest-first to approximate LRU
     * order.
     */
    void warmData(Addr addr, bool is_store);

    /**
     * Functional I-cache warm-up: install the line containing pc into
     * the L1I and L2 as if the (fast-forwarded) fetch stream had
     * brought it in, including the i-side sequential next-line
     * prefetches into the pvBuf. Same contract as warmData: tags/LRU
     * only, no stats, latency, or bandwidth.
     */
    void warmInst(Addr pc);

    /** Fills still in flight at `now` (watchdog diagnosis). */
    std::size_t outstandingFills(Cycle now) const;

    /** Occupancy of the retirement write buffer (watchdog diagnosis). */
    std::size_t writeBufferOccupancy() const
    {
        return writeBuf_.occupancy();
    }

    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }
    const MemConfig &config() const { return cfg_; }

  private:
    /** launchPrefetches() for warmData(): trains the stream
     *  prefetcher and fills the pvBuf, but costs no bandwidth. */
    void warmPrefetches(Addr miss_addr);
    /** Fetch a line into L2 (+ account bus occupancy). */
    Cycle missToMemory(Cycle now);
    void launchPrefetches(Addr miss_addr, Cycle now);

    /**
     * MSHR-style merge tracking: a line whose fill is still in flight.
     * A second access to it waits for the remaining latency instead of
     * initiating (and paying for) a second miss. This is how a slice
     * prefetch that has not completed yet still shortens the main
     * thread's stall (the mcf case in Section 6.1).
     */
    struct PendingFill
    {
        Cycle readyAt = 0;
        bool bySlice = false;
    };

    /** Handles into stats_, registered once at construction so the
     *  access paths do pointer-indirect increments only. */
    struct Handles
    {
        explicit Handles(StatGroup &g);
        Stat &memRequests;
        Stat &hwPrefetches;
        Stat &loads;
        Stat &stores;
        Stat &sliceAccesses;
        Stat &delayedHits;
        Stat &coveredMisses;
        Stat &l1dHits;
        Stat &pvbufHits;
        Stat &pvbufPrefetchHits;
        Stat &writebufHits;
        Stat &l1dMisses;
        Stat &l1dMissesMain;
        Stat &l1dMissesSlice;
        Stat &l2Hits;
        Stat &l2Misses;
        Stat &ifetches;
        Stat &pvbufInstHits;
        Stat &l1iMisses;
        Stat &storeMisses;
    };

    MemConfig cfg_;
    SetAssocCache l1i_;
    SetAssocCache l1d_;
    SetAssocCache l2_;
    PrefetchVictimBuffer pvBuf_;
    WriteBuffer writeBuf_;
    StreamPrefetcher prefetcher_;
    Cycle memBusFreeAt_ = 0;
    OpenHashMap<Addr, PendingFill> pendingFills_;
    /** tick() sweeps expired pendingFills_ once the map outgrows
     *  this (twice its size after the last sweep, at least 256). */
    std::size_t sweepAt_ = 256;
    StatGroup stats_;
    Handles s_;
};

} // namespace specslice::mem

#endif // SPECSLICE_MEM_HIERARCHY_HH
