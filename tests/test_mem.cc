/**
 * @file
 * Memory-system tests: the set-associative cache (including a
 * parameterized geometry sweep), the prefetch/victim buffer, the write
 * buffer, the stream prefetcher, and the full hierarchy (latencies,
 * MSHR merging, slice covered-miss accounting, store paths).
 */

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/stream_prefetcher.hh"
#include "mem/victim_buffer.hh"
#include "mem/write_buffer.hh"

using namespace specslice;
using namespace specslice::mem;

TEST(CacheTest, HitAfterFill)
{
    SetAssocCache c(1024, 2, 64);
    EXPECT_EQ(c.access(0x1000, true), nullptr);
    c.fill(0x1000, false, false);
    EXPECT_NE(c.access(0x1000, true), nullptr);
    EXPECT_NE(c.access(0x103f, true), nullptr);  // same line
    EXPECT_EQ(c.access(0x1040, true), nullptr);  // next line
}

TEST(CacheTest, LruEviction)
{
    // 2-way, 64B lines, 2 sets (256B total).
    SetAssocCache c(256, 2, 64);
    // Three lines in set 0 (stride = 2 lines).
    c.fill(0x0000, false, false);
    c.fill(0x0080, false, false);
    c.access(0x0000, true);  // make 0x0000 MRU
    c.fill(0x0100, false, false);  // evicts 0x0080 (LRU)
    EXPECT_NE(c.peek(0x0000), nullptr);
    EXPECT_EQ(c.peek(0x0080), nullptr);
    EXPECT_NE(c.peek(0x0100), nullptr);
}

TEST(CacheTest, EvictionReportsDirtyLine)
{
    SetAssocCache c(128, 1, 64);  // direct-mapped, 2 sets
    c.fill(0x0000, true, false);
    Eviction ev = c.fill(0x0080, false, false);  // same set
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, 0x0000u);
}

TEST(CacheTest, SliceFilledMetadata)
{
    SetAssocCache c(1024, 2, 64);
    c.fill(0x2000, false, true);  // filled by a slice
    const CacheLine *l = c.peek(0x2000);
    ASSERT_NE(l, nullptr);
    EXPECT_TRUE(l->sliceFilled);
    EXPECT_FALSE(l->mainTouched);
    c.access(0x2000, true);
    EXPECT_TRUE(c.peek(0x2000)->mainTouched);
}

/** Property: a cache never reports false hits across geometries. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheGeometry, ReferenceModelAgreement)
{
    auto [size_kb, assoc, line] = GetParam();
    SetAssocCache c(size_kb * 1024, assoc, line);
    Rng rng(size_kb * 131 + assoc * 17 + line);

    // Reference model: set of filled line addresses (unbounded), used
    // only to check one direction: a hit implies we filled that line.
    std::set<Addr> filled;
    for (int i = 0; i < 5000; ++i) {
        Addr a = rng.below(1 << 22);
        if (rng.chance(1, 2)) {
            c.fill(a, false, false);
            filled.insert(c.lineAddr(a));
        } else {
            if (c.access(a, true) != nullptr) {
                EXPECT_TRUE(filled.count(c.lineAddr(a)))
                    << "hit on never-filled line";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(4, 1, 32),
                      std::make_tuple(4, 2, 64),
                      std::make_tuple(64, 2, 64),
                      std::make_tuple(64, 4, 128),
                      std::make_tuple(8, 8, 64)));

TEST(VictimBufferTest, InsertLookupRemove)
{
    PrefetchVictimBuffer vb(4, 64);
    vb.insert(0x1000, false, 0);
    EXPECT_NE(vb.lookup(0x1020), nullptr);  // same line
    EXPECT_EQ(vb.lookup(0x2000), nullptr);
    vb.remove(0x1000);
    EXPECT_EQ(vb.lookup(0x1000), nullptr);
}

TEST(VictimBufferTest, LruReplacementWhenFull)
{
    PrefetchVictimBuffer vb(2, 64);
    vb.insert(0x1000, false, 0);
    vb.insert(0x2000, false, 0);
    vb.lookup(0x1000);          // touch 0x1000
    vb.insert(0x3000, false, 0);   // evicts 0x2000
    EXPECT_NE(vb.peek(0x1000), nullptr);
    EXPECT_EQ(vb.peek(0x2000), nullptr);
    EXPECT_NE(vb.peek(0x3000), nullptr);
    EXPECT_EQ(vb.population(), 2u);
}

TEST(VictimBufferTest, PrefetchReadyTime)
{
    PrefetchVictimBuffer vb(4, 64);
    vb.insert(0x1000, true, 150);
    auto *e = vb.lookup(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->fromPrefetch);
    EXPECT_EQ(e->readyAt, 150u);
}

namespace
{

/** The prefetch/victim buffer as a linear search: a recency stamp per
 *  entry from one clock, renewed by lookup and by a refreshing insert,
 *  and smallest-stamp eviction when no entry is free. */
class LinearVictimBuffer
{
  public:
    struct Entry
    {
        Addr lineAddr = 0;
        bool valid = false;
        bool fromPrefetch = false;
        Cycle readyAt = 0;
        std::uint64_t stamp = 0;
    };

    LinearVictimBuffer(unsigned entries, unsigned line_size)
        : lineSize_(line_size), entries_(entries)
    {
    }

    Entry *
    lookup(Addr addr)
    {
        Entry *e = find(addr & ~Addr{lineSize_ - 1});
        if (e)
            e->stamp = ++clock_;
        return e;
    }

    const Entry *
    peek(Addr addr)
    {
        return find(addr & ~Addr{lineSize_ - 1});
    }

    void
    insert(Addr line_addr, bool from_prefetch, Cycle ready_at)
    {
        if (Entry *e = find(line_addr)) {
            e->stamp = ++clock_;
            return;
        }
        Entry *victim = nullptr;
        for (Entry &e : entries_) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (!victim || e.stamp < victim->stamp)
                victim = &e;
        }
        *victim = {line_addr, true, from_prefetch, ready_at, ++clock_};
    }

    void
    remove(Addr line_addr)
    {
        if (Entry *e = find(line_addr))
            e->valid = false;
    }

    unsigned
    population() const
    {
        return static_cast<unsigned>(
            std::count_if(entries_.begin(), entries_.end(),
                          [](const Entry &e) { return e.valid; }));
    }

  private:
    Entry *
    find(Addr line)
    {
        for (Entry &e : entries_)
            if (e.valid && e.lineAddr == line)
                return &e;
        return nullptr;
    }

    unsigned lineSize_;
    std::uint64_t clock_ = 0;
    std::vector<Entry> entries_;
};

/** Same hit or miss, and on a hit the same line and payload. */
template <typename A, typename B>
::testing::AssertionResult
sameEntry(const A *a, const B *b)
{
    if (!a != !b)
        return ::testing::AssertionFailure()
               << "indexed " << (a ? "hit" : "miss") << ", linear "
               << (b ? "hit" : "miss");
    if (a && (a->lineAddr != b->lineAddr ||
              a->fromPrefetch != b->fromPrefetch ||
              a->readyAt != b->readyAt))
        return ::testing::AssertionFailure()
               << "indexed line 0x" << std::hex << a->lineAddr
               << ", linear line 0x" << b->lineAddr;
    return ::testing::AssertionSuccess();
}

/** Drive both buffers with the same seeded random operations over
 *  pool, comparing every result and the population after each. */
void
matchLinearReference(unsigned capacity, const std::vector<Addr> &pool,
                     std::uint64_t seed)
{
    constexpr unsigned lineSize = 64;
    PrefetchVictimBuffer indexed(capacity, lineSize);
    LinearVictimBuffer linear(capacity, lineSize);
    Rng rng(seed);
    for (unsigned op = 0; op < 100'000; ++op) {
        const Addr line = pool[rng.below(pool.size())];
        const Addr addr = line + rng.below(lineSize);
        const std::uint64_t kind = rng.below(20);
        if (kind < 8) {
            const bool from_prefetch = rng.chance(1, 2);
            const Cycle ready_at = rng.below(1'000);
            indexed.insert(line, from_prefetch, ready_at);
            linear.insert(line, from_prefetch, ready_at);
        } else if (kind < 13) {
            ASSERT_TRUE(sameEntry(indexed.lookup(addr), linear.lookup(addr)))
                << "lookup, capacity " << capacity << ", op " << op;
        } else if (kind < 17) {
            ASSERT_TRUE(sameEntry(indexed.peek(addr), linear.peek(addr)))
                << "peek, capacity " << capacity << ", op " << op;
        } else {
            indexed.remove(line);
            linear.remove(line);
        }
        ASSERT_EQ(indexed.population(), linear.population())
            << "capacity " << capacity << ", op " << op;
    }
    for (Addr line : pool)
        ASSERT_TRUE(sameEntry(indexed.peek(line), linear.peek(line)))
            << "final peek, capacity " << capacity;
}

} // namespace

TEST(VictimBufferTest, MatchesLinearReference)
{
    for (unsigned capacity : {1u, 2u, 3u, 8u, 64u}) {
        // Lines scattered over 1MB, three per entry: the buffer fills,
        // evicts, refreshes and frees slots throughout.
        Rng pick(capacity);
        std::set<Addr> scattered;
        while (scattered.size() < 3 * capacity)
            scattered.insert(0x100000 + pick.below(1 << 14) * 64);
        matchLinearReference(
            capacity, {scattered.begin(), scattered.end()}, capacity);

        // Lines 2^40 bytes apart share every low-order line-number
        // bit, so they all hash to one index bucket: every probe and
        // every backward-shift deletion walks one long chain.
        std::vector<Addr> colliding;
        for (Addr k = 1; k <= 3 * capacity; ++k)
            colliding.push_back(k << 40);
        matchLinearReference(capacity, colliding, 1'000 + capacity);
    }
}

TEST(WriteBufferTest, CoalescesAndDrains)
{
    WriteBuffer wb(2, 10);
    EXPECT_TRUE(wb.insert(0x1000, 0));
    EXPECT_TRUE(wb.insert(0x1000, 1));  // coalesce
    EXPECT_EQ(wb.occupancy(), 1u);
    EXPECT_TRUE(wb.insert(0x2000, 2));
    EXPECT_FALSE(wb.insert(0x3000, 3));  // full
    EXPECT_TRUE(wb.contains(0x1000));
    wb.drain(50);
    EXPECT_EQ(wb.occupancy(), 0u);
    EXPECT_FALSE(wb.contains(0x1000));
}

TEST(StreamPrefetcherTest, SequentialFirstTouch)
{
    StreamPrefetcher sp(4, 64, 2, true);
    auto out = sp.onMiss(0x10000);
    ASSERT_EQ(out.size(), 1u);  // speculative next-line
    EXPECT_EQ(out[0], 0x10040u);
}

TEST(StreamPrefetcherTest, PositiveUnitStride)
{
    StreamPrefetcher sp(4, 64, 2, false);
    sp.onMiss(0x10000);
    auto out = sp.onMiss(0x10040);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0x10080u);
    EXPECT_EQ(out[1], 0x100c0u);
}

TEST(StreamPrefetcherTest, NegativeStride)
{
    StreamPrefetcher sp(4, 64, 1, false);
    sp.onMiss(0x10100);
    auto out = sp.onMiss(0x100c0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x10080u);
}

TEST(StreamPrefetcherTest, RandomMissesDontTrainStride)
{
    StreamPrefetcher sp(4, 64, 2, false);
    Rng rng(5);
    unsigned prefetches = 0;
    for (int i = 0; i < 200; ++i)
        prefetches += sp.onMiss(rng.below(1 << 24) << 8).size();
    EXPECT_LT(prefetches, 20u);
}

namespace
{

MemConfig
smallConfig()
{
    MemConfig cfg;
    cfg.prefetcherEnabled = false;  // deterministic latencies
    return cfg;
}

} // namespace

TEST(HierarchyTest, LatencyLevels)
{
    MemoryHierarchy mh(smallConfig());
    // Cold: full path to memory.
    auto r1 = mh.accessData(0x100000, false, false, 10);
    EXPECT_TRUE(r1.memAccess);
    EXPECT_GE(r1.latency, 100u);
    // Hot (after the fill window passes): L1 hit.
    auto r2 = mh.accessData(0x100000, false, false, 10 + r1.latency);
    EXPECT_TRUE(r2.l1Hit);
    EXPECT_EQ(r2.latency, mh.config().l1Latency);
}

TEST(HierarchyTest, L2HitAfterL1Eviction)
{
    MemConfig cfg = smallConfig();
    cfg.l1dSize = 128;  // tiny L1: 2 lines
    cfg.l1dAssoc = 1;
    cfg.pvBufEntries = 1;
    MemoryHierarchy mh(cfg);
    Cycle t = 0;
    mh.accessData(0x100000, false, false, t);
    t += 200;
    // Evict via conflicting lines (same set, tiny direct-mapped L1).
    mh.accessData(0x100080, false, false, t);
    t += 200;
    mh.accessData(0x100100, false, false, t);
    t += 200;
    auto r = mh.accessData(0x100000, false, false, t);
    EXPECT_FALSE(r.memAccess);  // L2 (or victim buffer) supplies it
    EXPECT_LE(r.latency, mh.config().l1Latency + mh.config().l2Latency);
}

TEST(HierarchyTest, MshrMergeDelayedHit)
{
    MemoryHierarchy mh(smallConfig());
    auto r1 = mh.accessData(0x200000, false, false, 100);
    ASSERT_GE(r1.latency, 100u);
    // A second access 10 cycles later merges with the in-flight fill.
    auto r2 = mh.accessData(0x200000, false, false, 110);
    EXPECT_TRUE(r2.l1Hit);
    EXPECT_EQ(r2.latency, r1.latency - 10);
    EXPECT_EQ(mh.stats().get("delayed_hits"), 1u);
    EXPECT_EQ(mh.stats().get("l1d_misses"), 1u);
}

TEST(HierarchyTest, DeepFillQueueMergesUntilEachFillLands)
{
    // Thousands of misses to distinct L2 lines in one cycle queue
    // behind the memory bus, so the pending-fill map holds far more
    // than tick()'s 256-entry sweep floor. The L1 is large enough
    // that no line is evicted: an access before a line's fill lands
    // is a delayed hit for the remaining latency, one after it is a
    // plain L1 hit. tick() sweeps once, at the first tick, and never
    // again (the map never doubles), so every later expiry is seen
    // by the access path before any sweep removes it.
    MemConfig cfg = smallConfig();
    cfg.l1dSize = 1024 * 1024;
    cfg.l1dAssoc = 4;
    MemoryHierarchy mh(cfg);
    constexpr unsigned n = 3000;
    constexpr Addr base = 0x10000000;
    constexpr Cycle t0 = 1;
    std::vector<Cycle> ready(n);
    for (unsigned i = 0; i < n; ++i) {
        auto r = mh.accessData(base + i * cfg.l2LineSize, false, false,
                               t0);
        ASSERT_TRUE(r.memAccess);
        ASSERT_EQ(r.latency, cfg.l1Latency + cfg.l2Latency +
                                 cfg.memLatency +
                                 i * cfg.memBusOccupancy);
        ready[i] = t0 + r.latency;
    }
    EXPECT_EQ(mh.outstandingFills(t0), n);

    std::uint64_t delayed = 0;
    unsigned checkpoints = 0;
    for (Cycle now = t0 + 1; now <= ready.back() + 1; ++now) {
        mh.tick(now);
        if (now % 997 != 0)
            continue;
        ++checkpoints;
        const auto landed = static_cast<unsigned>(
            std::upper_bound(ready.begin(), ready.end(), now) -
            ready.begin());
        EXPECT_EQ(mh.outstandingFills(now), n - landed) << now;
        if (landed < n) {
            // The newest fill is still queued: merge with it.
            auto r = mh.accessData(base + (n - 1) * cfg.l2LineSize,
                                   false, false, now);
            EXPECT_TRUE(r.l1Hit);
            EXPECT_EQ(r.latency, ready.back() - now) << now;
            ++delayed;
        }
        if (landed > 0) {
            // The most recent fill to land expired unswept: it must
            // cost l1Latency and count no delayed hit.
            auto r = mh.accessData(base + (landed - 1) * cfg.l2LineSize,
                                   false, false, now);
            EXPECT_TRUE(r.l1Hit);
            EXPECT_EQ(r.latency, cfg.l1Latency) << now;
        }
        EXPECT_EQ(mh.stats().get("delayed_hits"), delayed) << now;
    }
    EXPECT_GE(checkpoints, 10u);
    EXPECT_EQ(mh.outstandingFills(ready.back()), 0u);
    EXPECT_EQ(mh.stats().get("l1d_misses"), n);
}

TEST(HierarchyTest, SliceCoveredMissAccounting)
{
    MemoryHierarchy mh(smallConfig());
    // Slice prefetches the line; the fill completes.
    mh.accessData(0x300000, false, true, 0);
    // Main thread's first touch is a covered miss...
    auto r = mh.accessData(0x300000, false, false, 500);
    EXPECT_TRUE(r.coveredBySlice);
    // ...but only once.
    auto r2 = mh.accessData(0x300000, false, false, 501);
    EXPECT_FALSE(r2.coveredBySlice);
    EXPECT_EQ(mh.stats().get("covered_misses"), 1u);
}

TEST(HierarchyTest, StoreMissWriteAllocatesWithoutStalling)
{
    MemoryHierarchy mh(smallConfig());
    auto r = mh.accessStore(0x400000, 0);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_EQ(r.latency, 1u);  // the pipeline never waits on stores
    // A dependent load hits (store-forwarding approximation).
    auto l = mh.accessData(0x400000, false, false, 1);
    EXPECT_TRUE(l.l1Hit);
}

TEST(HierarchyTest, RetireStoreUsesWriteBufferOnMiss)
{
    MemConfig cfg = smallConfig();
    MemoryHierarchy mh(cfg);
    // Retiring a store whose line is absent inserts into the WB.
    EXPECT_TRUE(mh.retireStore(0x500000, 0));
    auto l = mh.accessData(0x500000, false, false, 1);
    EXPECT_TRUE(l.writeBufferHit);
}

TEST(HierarchyTest, InstFetchPath)
{
    MemoryHierarchy mh(smallConfig());
    Cycle lat1 = mh.accessInst(0x10000, 0);
    EXPECT_GE(lat1, 100u);  // cold
    Cycle lat2 = mh.accessInst(0x10000, 500);
    EXPECT_EQ(lat2, mh.config().l1Latency);  // warm
}

TEST(HierarchyTest, InstPrefetchStreamsColdCode)
{
    MemConfig cfg;  // prefetcher ON
    MemoryHierarchy mh(cfg);
    mh.accessInst(0x10000, 0);
    // The next lines were prefetched into the PV buffer; fetching them
    // a while later is much cheaper than a full miss.
    Cycle lat = mh.accessInst(0x10040, 300);
    EXPECT_LT(lat, cfg.memLatency);
}

TEST(HierarchyTest, StreamPrefetcherCoversStriding)
{
    MemConfig cfg;  // prefetcher ON
    MemoryHierarchy mh(cfg);
    Cycle t = 0;
    std::uint64_t slow = 0;
    for (int i = 0; i < 64; ++i) {
        auto r = mh.accessData(0x600000 + i * 64, false, false, t);
        slow += (r.latency > 20);
        t += 150;
    }
    // After training, most strided accesses are covered.
    EXPECT_LT(slow, 20u);
}
