/**
 * @file
 * Power-of-two rings that recycle their storage, for the detailed
 * core's per-instruction and per-fork state. Once a ring has grown to
 * its working size, pushing, claiming, popping and erasing allocate
 * nothing, and a recycled element keeps the capacity of any container
 * it holds.
 *
 *  - RingQueue: a queue with push_back, pop_front and pop_back (the
 *    ROBs, the store-undo log, the write buffer, correlator slots,
 *    the retirement checker's history).
 *  - IdRing: slots indexed by a dense, increasing id such as a VN#
 *    (the in-flight window, the correlator's branch queue).
 *
 * Both grow by doubling and move their elements when they do, so a
 * pointer or reference into a ring is valid only until the next push
 * or claim.
 */

#ifndef SPECSLICE_COMMON_RING_HH
#define SPECSLICE_COMMON_RING_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace specslice
{

/**
 * A queue on a power-of-two ring. Popped elements stay in place until
 * a later push overwrites them, so T should be a plain value type.
 */
template <typename T>
class RingQueue
{
    template <typename Queue, typename Value>
    class Iter
    {
      public:
        Iter(Queue *q, std::size_t i) : q_(q), i_(i) {}
        Value &operator*() const { return (*q_)[i_]; }
        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const Iter &o) const { return i_ == o.i_; }

      private:
        Queue *q_;
        std::size_t i_;
    };

  public:
    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }

    /** The i-th element from the front. */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask()];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size() - 1]; }

    void
    push_back(const T &v)
    {
        if (size() == buf_.size())
            grow();
        buf_[tail_++ & mask()] = v;
    }

    void pop_front() { ++head_; }
    void pop_back() { --tail_; }
    void clear() { head_ = tail_ = 0; }

    Iter<RingQueue, T> begin() { return {this, 0}; }
    Iter<RingQueue, T> end() { return {this, size()}; }
    Iter<const RingQueue, const T> begin() const { return {this, 0}; }
    Iter<const RingQueue, const T> end() const { return {this, size()}; }

  private:
    std::size_t mask() const { return buf_.size() - 1; }

    void
    grow()
    {
        std::vector<T> bigger(std::max<std::size_t>(8, 2 * buf_.size()));
        const std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            bigger[i] = std::move((*this)[i]);
        buf_.swap(bigger);
        head_ = 0;
        tail_ = n;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;  ///< position of the front (before masking)
    std::size_t tail_ = 0;  ///< one past the back
};

/**
 * Slots indexed by a dense, increasing id. The ids that may be live
 * span [base, end): claims go at the new end, and erasing the oldest
 * live id moves base past every erased id behind it. Id i lives in
 * slot i & mask; when a new id would not fit in the ring, the ring
 * doubles until it does (an old live id can hold the span open while
 * younger ones come and go).
 */
template <typename T>
class IdRing
{
  public:
    T *
    find(std::uint64_t id)
    {
        if (id < base_ || id >= end_)
            return nullptr;
        Slot &s = slots_[id & mask()];
        return s.live ? &s.value : nullptr;
    }

    /**
     * Make id live and return its slot, which still holds whatever
     * its last occupant left: the caller resets it, keeping any
     * storage it wants to reuse. id must be newer than every id
     * claimed before.
     */
    T &
    claim(std::uint64_t id)
    {
        SS_ASSERT(id >= end_, "ring ids must increase");
        if (live_ == 0)
            base_ = end_ = id;
        while (id - base_ >= slots_.size())
            grow();
        for (; end_ < id; ++end_)
            slots_[end_ & mask()].live = false;
        Slot &s = slots_[id & mask()];
        s.live = true;
        end_ = id + 1;
        ++live_;
        return s.value;
    }

    void
    erase(std::uint64_t id)
    {
        if (id < base_ || id >= end_)
            return;
        Slot &s = slots_[id & mask()];
        if (!s.live)
            return;
        s.live = false;
        --live_;
        while (base_ < end_ && !slots_[base_ & mask()].live)
            ++base_;
    }

    /** Visit live slots in id order. */
    template <typename Fn>
    void
    forEach(Fn fn)
    {
        for (std::uint64_t id = base_; id < end_; ++id) {
            Slot &s = slots_[id & mask()];
            if (s.live)
                fn(s.value);
        }
    }

    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        const_cast<IdRing *>(this)->forEach(
            [&fn](const T &v) { fn(v); });
    }

    /** The oldest live slot (nullptr when empty). */
    T *
    oldest()
    {
        return live_ ? &slots_[base_ & mask()].value : nullptr;
    }

    std::size_t size() const { return live_; }

  private:
    struct Slot
    {
        T value{};
        bool live = false;
    };

    std::size_t mask() const { return slots_.size() - 1; }

    void
    grow()
    {
        std::vector<Slot> bigger(
            std::max<std::size_t>(64, 2 * slots_.size()));
        // Move every slot, dead ones too, so recycled storage
        // survives: the old ring's ids base..base+size-1 land in
        // distinct slots of the new one.
        const std::size_t new_mask = bigger.size() - 1;
        for (std::uint64_t id = base_; id < base_ + slots_.size(); ++id)
            bigger[id & new_mask] = std::move(slots_[id & mask()]);
        slots_.swap(bigger);
    }

    std::vector<Slot> slots_;
    std::uint64_t base_ = 0;
    std::uint64_t end_ = 0;
    std::size_t live_ = 0;
};

} // namespace specslice

#endif // SPECSLICE_COMMON_RING_HH
