#include "mem/hierarchy.hh"

#include <algorithm>

namespace specslice::mem
{

MemoryHierarchy::Handles::Handles(StatGroup &g)
    : memRequests(g.scalar("mem_requests")),
      hwPrefetches(g.scalar("hw_prefetches")),
      loads(g.scalar("loads")),
      stores(g.scalar("stores")),
      sliceAccesses(g.scalar("slice_accesses")),
      delayedHits(g.scalar("delayed_hits")),
      coveredMisses(g.scalar("covered_misses")),
      l1dHits(g.scalar("l1d_hits")),
      pvbufHits(g.scalar("pvbuf_hits")),
      pvbufPrefetchHits(g.scalar("pvbuf_prefetch_hits")),
      writebufHits(g.scalar("writebuf_hits")),
      l1dMisses(g.scalar("l1d_misses")),
      l1dMissesMain(g.scalar("l1d_misses_main")),
      l1dMissesSlice(g.scalar("l1d_misses_slice")),
      l2Hits(g.scalar("l2_hits")),
      l2Misses(g.scalar("l2_misses")),
      ifetches(g.scalar("ifetches")),
      pvbufInstHits(g.scalar("pvbuf_inst_hits")),
      l1iMisses(g.scalar("l1i_misses")),
      storeMisses(g.scalar("store_misses"))
{
}

MemoryHierarchy::MemoryHierarchy(const MemConfig &cfg)
    : cfg_(cfg),
      l1i_(cfg.l1iSize, cfg.l1iAssoc, cfg.l1iLineSize),
      l1d_(cfg.l1dSize, cfg.l1dAssoc, cfg.l1dLineSize),
      l2_(cfg.l2Size, cfg.l2Assoc, cfg.l2LineSize),
      pvBuf_(cfg.pvBufEntries, cfg.l1dLineSize),
      writeBuf_(cfg.writeBufEntries),
      prefetcher_(cfg.prefetchStreams, cfg.l1dLineSize, cfg.prefetchDegree,
                  cfg.sequentialPrefetch),
      stats_("mem"),
      s_(stats_)
{
}

Cycle
MemoryHierarchy::missToMemory(Cycle now)
{
    // Request bandwidth model: each memory request occupies the channel
    // for memBusOccupancy cycles; requests queue behind each other.
    Cycle start = std::max(now, memBusFreeAt_);
    memBusFreeAt_ = start + cfg_.memBusOccupancy;
    ++s_.memRequests;
    return (start - now) + cfg_.memLatency;
}

void
MemoryHierarchy::launchPrefetches(Addr miss_addr, Cycle now)
{
    if (!cfg_.prefetcherEnabled)
        return;
    for (Addr line : prefetcher_.onMiss(miss_addr)) {
        // Skip lines already close to the core.
        if (l1d_.peek(line) || pvBuf_.peek(line))
            continue;
        Cycle lat = l2_.peek(line) ? cfg_.l2Latency : missToMemory(now);
        pvBuf_.insert(line, true, now + lat);
        ++s_.hwPrefetches;
    }
}

void
MemoryHierarchy::warmData(Addr addr, bool is_store)
{
    // Mirrors accessData structurally — L1 probe, pvBuf probe
    // with promotion, prefetcher training, L2 fill only on a true
    // miss — with no stats, latency, or bandwidth accounting. The
    // structural fidelity matters: an L1 hit must not refresh the
    // L2's LRU, and a line promoted out of the pvBuf never enters
    // the L2, so a warmed hierarchy whose prefetcher covered a line
    // stays exactly as L2-cold as a naturally warmed one.
    if (CacheLine *line = l1d_.access(addr, true)) {
        if (is_store)
            line->dirty = true;
        return;
    }
    if (auto *entry = pvBuf_.lookup(addr)) {
        Addr promoted = entry->lineAddr;
        bool was_prefetch = entry->fromPrefetch;
        pvBuf_.remove(promoted);
        Eviction ev = l1d_.fill(promoted, is_store, false);
        if (ev.valid)
            pvBuf_.insert(ev.lineAddr, false, 0);
        l1d_.access(addr, true);
        if (was_prefetch)
            warmPrefetches(addr);
        return;
    }
    warmPrefetches(addr);
    if (!l2_.access(addr, true))
        l2_.fill(addr, false, false);
    Eviction ev = l1d_.fill(addr, is_store, false);
    if (ev.valid)
        pvBuf_.insert(ev.lineAddr, false, 0);
}

void
MemoryHierarchy::warmInst(Addr pc)
{
    // Mirrors accessInst structurally — L1I probe, pvBuf probe with
    // promotion, L2 fill only on a true miss, i-side sequential
    // next-line prefetch — with no stats, latency, or bandwidth
    // accounting (prefetched lines arrive "already ready", as in
    // warmPrefetches).
    if (l1i_.access(pc, true))
        return;
    if (auto *entry = pvBuf_.lookup(pc)) {
        pvBuf_.remove(entry->lineAddr);
        l1i_.fill(pc, false, false);
        return;
    }
    if (!l2_.access(pc, true))
        l2_.fill(pc, false, false);
    l1i_.fill(pc, false, false);
    if (cfg_.prefetcherEnabled) {
        Addr line = l1i_.lineAddr(pc);
        for (unsigned d = 1; d <= 2 + cfg_.prefetchDegree; ++d) {
            Addr next = line + d * cfg_.l1iLineSize;
            if (l1i_.peek(next) || pvBuf_.peek(next))
                continue;
            pvBuf_.insert(next, true, 0);
        }
    }
}

void
MemoryHierarchy::warmPrefetches(Addr miss_addr)
{
    if (!cfg_.prefetcherEnabled)
        return;
    // Same stream-training and insertion as launchPrefetches, minus
    // missToMemory: warm-up prefetches happened "in the past", so
    // they arrive ready and cost no request bandwidth.
    for (Addr line : prefetcher_.onMiss(miss_addr)) {
        if (l1d_.peek(line) || pvBuf_.peek(line))
            continue;
        pvBuf_.insert(line, true, 0);
    }
}

AccessResult
MemoryHierarchy::accessData(Addr addr, bool is_store, bool is_slice_thread,
                            Cycle now)
{
    AccessResult res;
    bool is_main = !is_slice_thread;
    ++(is_store ? s_.stores : s_.loads);
    if (is_slice_thread)
        ++s_.sliceAccesses;

    // L1D probe (prefetch/victim buffer checked in parallel).
    if (CacheLine *line = l1d_.access(addr, is_main)) {
        res.l1Hit = true;
        res.latency = cfg_.l1Latency;

        // MSHR merge: if this line's fill is still in flight, the
        // access waits for the remaining latency, not a fresh miss.
        const Addr line_addr = l1d_.lineAddr(addr);
        if (const PendingFill *fill = pendingFills_.find(line_addr)) {
            if (now < fill->readyAt) {
                res.latency = fill->readyAt - now;
                ++s_.delayedHits;
            } else {
                pendingFills_.erase(line_addr);
            }
        }

        if (is_main && line->sliceFilled) {
            // First main-thread touch of a slice-prefetched line: this
            // would have been a (full) miss without the slice
            // ("covered"). sliceFilled acts as the one-shot marker.
            res.coveredBySlice = true;
            line->sliceFilled = false;
            ++s_.coveredMisses;
        }
        if (is_store)
            line->dirty = true;
        ++s_.l1dHits;
        return res;
    }

    // Parallel prefetch/victim buffer probe.
    if (auto *entry = pvBuf_.lookup(addr)) {
        Cycle ready = std::max(entry->readyAt, now);
        res.pvBufHit = true;
        res.latency = cfg_.l1Latency + (ready - now);
        ++s_.pvbufHits;
        if (entry->fromPrefetch)
            ++s_.pvbufPrefetchHits;
        // Promote into the L1.
        Addr promoted = entry->lineAddr;
        bool was_prefetch = entry->fromPrefetch;
        pvBuf_.remove(promoted);
        Eviction ev = l1d_.fill(promoted, is_store, is_slice_thread);
        if (ev.valid)
            pvBuf_.insert(ev.lineAddr, false, now);
        if (is_main)
            l1d_.access(addr, true);
        // A hit on a prefetched line confirms the stream: keep the
        // prefetcher trained (and running ahead) rather than letting
        // covered accesses starve it of miss events.
        if (was_prefetch)
            launchPrefetches(addr, now);
        return res;
    }

    // Write buffer holds the line of a retired store miss.
    if (writeBuf_.contains(l1d_.lineAddr(addr))) {
        res.writeBufferHit = true;
        res.latency = cfg_.l1Latency + 1;
        ++s_.writebufHits;
        Eviction ev = l1d_.fill(addr, true, is_slice_thread);
        if (ev.valid && ev.dirty)
            pvBuf_.insert(ev.lineAddr, false, now);
        return res;
    }

    // L1 miss.
    ++s_.l1dMisses;
    if (is_main)
        ++s_.l1dMissesMain;
    else
        ++s_.l1dMissesSlice;
    launchPrefetches(addr, now);

    Cycle lat;
    if (l2_.access(addr, is_main)) {
        res.l2Hit = true;
        lat = cfg_.l1Latency + cfg_.l2Latency;
        ++s_.l2Hits;
    } else {
        res.memAccess = true;
        ++s_.l2Misses;
        lat = cfg_.l1Latency + cfg_.l2Latency + missToMemory(now);
        l2_.fill(addr, false, is_slice_thread);
    }

    // Fill the L1; victims go to the victim buffer. The tag is
    // installed now; the in-flight window is tracked in pendingFills_
    // so later accesses merge with this fill.
    Eviction ev = l1d_.fill(addr, is_store, is_slice_thread);
    if (ev.valid)
        pvBuf_.insert(ev.lineAddr, false, now);
    pendingFills_[l1d_.lineAddr(addr)] = {now + lat, is_slice_thread};

    res.latency = lat;
    return res;
}

Cycle
MemoryHierarchy::accessInst(Addr pc, Cycle now)
{
    ++s_.ifetches;
    if (l1i_.access(pc, true))
        return cfg_.l1Latency;

    // The unified prefetch/victim buffer is checked on all accesses.
    if (auto *entry = pvBuf_.lookup(pc)) {
        Cycle ready = std::max(entry->readyAt, now);
        Cycle lat = cfg_.l1Latency + (ready - now);
        pvBuf_.remove(entry->lineAddr);
        l1i_.fill(pc, false, false);
        ++s_.pvbufInstHits;
        return lat;
    }

    ++s_.l1iMisses;
    Cycle lat;
    if (l2_.access(pc, true)) {
        lat = cfg_.l1Latency + cfg_.l2Latency;
    } else {
        ++s_.l2Misses;
        lat = cfg_.l1Latency + cfg_.l2Latency + missToMemory(now);
        l2_.fill(pc, false, false);
    }
    l1i_.fill(pc, false, false);

    // Sequential next-line prefetch on the instruction side: run a few
    // lines ahead so straight-line cold code streams instead of
    // serializing one miss per line.
    if (cfg_.prefetcherEnabled) {
        Addr line = l1i_.lineAddr(pc);
        for (unsigned d = 1; d <= 2 + cfg_.prefetchDegree; ++d) {
            Addr next = line + d * cfg_.l1iLineSize;
            if (l1i_.peek(next) || pvBuf_.peek(next))
                continue;
            Cycle plat = l2_.peek(next)
                             ? cfg_.l2Latency
                             : missToMemory(now);
            pvBuf_.insert(next, true, now + plat);
            ++s_.hwPrefetches;
        }
    }
    return lat;
}

AccessResult
MemoryHierarchy::accessStore(Addr addr, Cycle now)
{
    AccessResult res;
    ++s_.stores;
    res.latency = 1;

    if (CacheLine *line = l1d_.access(addr, true)) {
        res.l1Hit = true;
        line->dirty = true;
        line->sliceFilled = false;
        ++s_.l1dHits;
        return res;
    }
    if (auto *entry = pvBuf_.lookup(addr)) {
        res.pvBufHit = true;
        Addr promoted = entry->lineAddr;
        pvBuf_.remove(promoted);
        Eviction ev = l1d_.fill(promoted, true, false);
        if (ev.valid)
            pvBuf_.insert(ev.lineAddr, false, now);
        ++s_.pvbufHits;
        return res;
    }
    if (writeBuf_.contains(l1d_.lineAddr(addr))) {
        res.writeBufferHit = true;
        ++s_.writebufHits;
        return res;
    }
    // Store miss: write-allocate. The line is installed immediately
    // (dirty); the store itself never stalls the pipeline, and a
    // dependent load to the just-written data behaves like store
    // forwarding (hits). The write buffer at retirement covers the
    // rare line-evicted-before-retire case.
    ++s_.storeMisses;
    launchPrefetches(addr, now);
    if (!l2_.access(addr, true)) {
        ++s_.l2Misses;
        missToMemory(now);
        l2_.fill(addr, false, false);
    }
    Eviction ev = l1d_.fill(addr, true, false);
    if (ev.valid)
        pvBuf_.insert(ev.lineAddr, false, now);
    return res;
}

bool
MemoryHierarchy::retireStore(Addr addr, Cycle now)
{
    // Store hits were already handled at execute; misses retire into
    // the write buffer so they never stall the pipeline.
    if (l1d_.peek(addr))
        return true;
    return writeBuf_.insert(l1d_.lineAddr(addr), now);
}

void
MemoryHierarchy::tick(Cycle now)
{
    writeBuf_.drain(now);
    // Keep the pending-fill map from accumulating expired entries,
    // sweeping only once it has doubled since the last sweep: with
    // hundreds of fills in flight a per-cycle sweep cost more than
    // the rest of the cycle. When an expired entry goes is invisible
    // to the model, since an L1 hit on one erases it and pays
    // l1Latency.
    if (pendingFills_.size() > sweepAt_) {
        pendingFills_.eraseIf([now](Addr, const PendingFill &fill) {
            return fill.readyAt <= now;
        });
        sweepAt_ = std::max<std::size_t>(256, 2 * pendingFills_.size());
    }
}

std::size_t
MemoryHierarchy::outstandingFills(Cycle now) const
{
    std::size_t n = 0;
    pendingFills_.forEach([&n, now](Addr, const PendingFill &fill) {
        n += fill.readyAt > now;
    });
    return n;
}

} // namespace specslice::mem
