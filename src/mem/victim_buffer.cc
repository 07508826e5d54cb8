#include "mem/victim_buffer.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace specslice::mem
{

PrefetchVictimBuffer::PrefetchVictimBuffer(unsigned entries,
                                           unsigned line_size)
    : lineMask_(static_cast<Addr>(line_size) - 1),
      lineShift_(floorLog2(line_size)),
      indexBits_(ceilLog2(4 * std::uint64_t{entries})),
      slots_(entries),
      index_(std::size_t{1} << indexBits_)
{
    SS_ASSERT(isPowerOf2(line_size), "line size must be a power of two");
    SS_ASSERT(entries > 0, "the prefetch/victim buffer needs an entry");
    free_.reserve(entries);
    for (SlotId s = entries; s-- > 0;)
        free_.push_back(s);
}

PrefetchVictimBuffer::Entry *
PrefetchVictimBuffer::lookup(Addr addr)
{
    const SlotId s = index_[probe(lineAddr(addr))].slot;
    if (s == noSlot)
        return nullptr;
    touch(s);
    return &slots_[s].entry;
}

const PrefetchVictimBuffer::Entry *
PrefetchVictimBuffer::peek(Addr addr) const
{
    const SlotId s = index_[probe(lineAddr(addr))].slot;
    return s == noSlot ? nullptr : &slots_[s].entry;
}

void
PrefetchVictimBuffer::insert(Addr line_addr, bool from_prefetch,
                             Cycle ready_at)
{
    SS_ASSERT((line_addr & lineMask_) == 0, "misaligned line");

    std::size_t b = probe(line_addr);
    if (index_[b].slot != noSlot) {
        touch(index_[b].slot);  // refresh: recency only
        return;
    }

    SlotId s;
    if (!free_.empty()) {
        s = free_.back();
        free_.pop_back();
    } else {
        s = oldest_;
        unlink(s);
        eraseBucket(probe(slots_[s].entry.lineAddr));
        b = probe(line_addr);  // the erase may have shifted the chain
    }
    slots_[s].entry = Entry{line_addr, from_prefetch, ready_at};
    pushNewest(s);
    index_[b] = Bucket{line_addr, s};
}

void
PrefetchVictimBuffer::remove(Addr line_addr)
{
    const std::size_t b = probe(line_addr);
    const SlotId s = index_[b].slot;
    if (s == noSlot)
        return;
    eraseBucket(b);
    unlink(s);
    free_.push_back(s);
}

void
PrefetchVictimBuffer::eraseBucket(std::size_t b)
{
    // Backward-shift deletion: walk the chain after the hole and move
    // back each line whose home does not lie cyclically in
    // (hole, its bucket], so every probe still finds it.
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = b;
    for (std::size_t j = (b + 1) & mask; index_[j].slot != noSlot;
         j = (j + 1) & mask) {
        if (((j - home(index_[j].line)) & mask) >= ((j - hole) & mask)) {
            index_[hole] = index_[j];
            hole = j;
        }
    }
    index_[hole].slot = noSlot;
}

void
PrefetchVictimBuffer::unlink(SlotId s)
{
    Slot &x = slots_[s];
    (x.newer != noSlot ? slots_[x.newer].older : newest_) = x.older;
    (x.older != noSlot ? slots_[x.older].newer : oldest_) = x.newer;
}

void
PrefetchVictimBuffer::pushNewest(SlotId s)
{
    Slot &x = slots_[s];
    x.newer = noSlot;
    x.older = newest_;
    (newest_ != noSlot ? slots_[newest_].newer : oldest_) = s;
    newest_ = s;
}

void
PrefetchVictimBuffer::touch(SlotId s)
{
    if (s == newest_)
        return;
    unlink(s);
    pushNewest(s);
}

} // namespace specslice::mem
