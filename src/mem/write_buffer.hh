/**
 * @file
 * Write buffer: store misses are retired into it (Table 1), so they
 * never stall retirement. Entries coalesce by line and drain to the
 * memory system in the background; a full buffer back-pressures stores.
 */

#ifndef SPECSLICE_MEM_WRITE_BUFFER_HH
#define SPECSLICE_MEM_WRITE_BUFFER_HH

#include "common/ring.hh"
#include "common/types.hh"

namespace specslice::mem
{

class WriteBuffer
{
  public:
    explicit WriteBuffer(unsigned entries, Cycle drain_interval = 20)
        : capacity_(entries), drainInterval_(drain_interval)
    {}

    /**
     * Insert a missed store's line.
     * @return false if the buffer is full (the store must retry/stall).
     */
    bool insert(Addr line_addr, Cycle now);

    /** Drain entries whose residency time has elapsed. */
    void drain(Cycle now);

    /** @return true if addr's line is buffered (store-to-load visible). */
    bool contains(Addr line_addr) const;

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t occupancy() const { return entries_.size(); }

  private:
    struct Entry
    {
        Addr lineAddr;
        Cycle insertedAt;
    };

    std::size_t capacity_;
    Cycle drainInterval_;
    RingQueue<Entry> entries_;
};

} // namespace specslice::mem

#endif // SPECSLICE_MEM_WRITE_BUFFER_HH
