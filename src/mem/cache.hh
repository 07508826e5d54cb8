/**
 * @file
 * A generic set-associative, write-back, write-allocate cache tag array
 * with true-LRU replacement. Only tags and per-line metadata are
 * modeled; data comes from the shared functional memory image.
 *
 * Lines remember whether they were brought in by a helper (slice)
 * thread and whether the main thread has touched them since, which lets
 * the simulator attribute "covered" cache misses to slices (Table 4's
 * 'Cache misses "covered"' row).
 */

#ifndef SPECSLICE_MEM_CACHE_HH
#define SPECSLICE_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/types.hh"

namespace specslice::mem
{

/** Per-line metadata. */
struct CacheLine
{
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    bool sliceFilled = false;   ///< brought in by a helper thread
    bool mainTouched = false;   ///< accessed by the main thread since fill
    std::uint64_t lru = 0;      ///< higher = more recently used
};

/** Result of a fill: describes the evicted line, if any. */
struct Eviction
{
    bool valid = false;   ///< a valid line was evicted
    bool dirty = false;
    Addr lineAddr = 0;    ///< base address of the evicted line
};

class SetAssocCache
{
  public:
    /**
     * @param size total capacity in bytes
     * @param assoc associativity (ways)
     * @param line_size line size in bytes (power of two)
     */
    SetAssocCache(std::size_t size, unsigned assoc, unsigned line_size);

    /** @return line base address containing addr. */
    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(lineSize_ - 1);
    }

    /**
     * Probe for addr; on hit, updates LRU and per-line touch metadata.
     * @param is_main_thread the access came from the main thread
     * @return the hit line, or nullptr on miss
     */
    CacheLine *access(Addr addr, bool is_main_thread);

    /** Probe without any state update (for profiling / would-hit). */
    const CacheLine *peek(Addr addr) const;

    /**
     * Allocate a line for addr (victim = LRU way of the set).
     * @param dirty install in dirty state (write-allocate store)
     * @param by_slice the fill was triggered by a helper thread
     * @return description of the evicted line
     */
    Eviction fill(Addr addr, bool dirty, bool by_slice);

    unsigned lineSize() const { return lineSize_; }
    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

  private:
    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    unsigned lineSize_;
    unsigned assoc_;
    unsigned numSets_;
    unsigned lineShift_;
    std::uint64_t lruClock_ = 0;
    std::vector<CacheLine> lines_;  ///< numSets_ * assoc_, set-major
};

} // namespace specslice::mem

#endif // SPECSLICE_MEM_CACHE_HH
