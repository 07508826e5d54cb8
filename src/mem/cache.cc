#include "mem/cache.hh"

#include "common/logging.hh"

namespace specslice::mem
{

SetAssocCache::SetAssocCache(std::size_t size, unsigned assoc,
                             unsigned line_size)
    : lineSize_(line_size), assoc_(assoc)
{
    SS_ASSERT(isPowerOf2(line_size), "line size must be a power of two");
    SS_ASSERT(assoc >= 1, "associativity must be positive");
    SS_ASSERT(size % (static_cast<std::size_t>(assoc) * line_size) == 0,
              "size not divisible by way size");
    numSets_ = static_cast<unsigned>(size / assoc / line_size);
    SS_ASSERT(isPowerOf2(numSets_), "set count must be a power of two");
    lineShift_ = floorLog2(line_size);
    lines_.resize(static_cast<std::size_t>(numSets_) * assoc_);
}

std::uint64_t
SetAssocCache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

Addr
SetAssocCache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

CacheLine *
SetAssocCache::access(Addr addr, bool is_main_thread)
{
    Addr tag = tagOf(addr);
    std::size_t base = setIndex(addr) * assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
        CacheLine &line = lines_[base + w];
        if (line.valid && line.tag == tag) {
            line.lru = ++lruClock_;
            if (is_main_thread)
                line.mainTouched = true;
            return &line;
        }
    }
    return nullptr;
}

const CacheLine *
SetAssocCache::peek(Addr addr) const
{
    Addr tag = tagOf(addr);
    std::size_t base = setIndex(addr) * assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
        const CacheLine &line = lines_[base + w];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

Eviction
SetAssocCache::fill(Addr addr, bool dirty, bool by_slice)
{
    Addr tag = tagOf(addr);
    std::size_t base = setIndex(addr) * assoc_;

    // If already present (e.g. racing fills), just update metadata.
    for (unsigned w = 0; w < assoc_; ++w) {
        CacheLine &line = lines_[base + w];
        if (line.valid && line.tag == tag) {
            line.dirty = line.dirty || dirty;
            line.lru = ++lruClock_;
            return {};
        }
    }

    // Choose a victim: first invalid way, else LRU.
    unsigned victim = 0;
    std::uint64_t best = ~std::uint64_t{0};
    for (unsigned w = 0; w < assoc_; ++w) {
        CacheLine &line = lines_[base + w];
        if (!line.valid) {
            victim = w;
            best = 0;
            break;
        }
        if (line.lru < best) {
            best = line.lru;
            victim = w;
        }
    }

    CacheLine &line = lines_[base + victim];
    Eviction ev;
    if (line.valid) {
        ev.valid = true;
        ev.dirty = line.dirty;
        ev.lineAddr = line.tag << lineShift_;
    }

    line.valid = true;
    line.tag = tag;
    line.dirty = dirty;
    line.sliceFilled = by_slice;
    line.mainTouched = !by_slice;
    line.lru = ++lruClock_;
    return ev;
}

} // namespace specslice::mem
