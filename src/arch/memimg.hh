/**
 * @file
 * A sparse, paged functional memory image shared by the main thread and
 * helper threads. Page zero is never mapped, so null-pointer
 * dereferences fault — the paper relies on this to terminate slices
 * that walk off the end of linked structures ("linked list traversals
 * will automatically terminate when they dereference a null pointer",
 * Section 3.2).
 */

#ifndef SPECSLICE_ARCH_MEMIMG_HH
#define SPECSLICE_ARCH_MEMIMG_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace specslice::arch
{

/** Byte-addressed sparse memory. Reads of unwritten addresses are 0. */
class MemoryImage
{
  public:
    MemoryImage() = default;
    /** Moves leave the source empty, translation cache included. */
    MemoryImage(MemoryImage &&other) noexcept;
    MemoryImage &operator=(MemoryImage &&other) noexcept;

    static constexpr unsigned pageShift = 12;
    static constexpr std::size_t pageSize = std::size_t{1} << pageShift;

    /** @return true if addr lives on the (always unmapped) null page. */
    static bool
    faults(Addr addr)
    {
        return addr < pageSize;
    }

    /** Read n bytes (n in {1,2,4,8}), little-endian. */
    std::uint64_t read(Addr addr, unsigned n) const;

    /** Write n bytes (n in {1,2,4,8}), little-endian. */
    void write(Addr addr, std::uint64_t value, unsigned n);

    std::uint64_t readQ(Addr addr) const { return read(addr, 8); }
    std::uint32_t
    readL(Addr addr) const
    {
        return static_cast<std::uint32_t>(read(addr, 4));
    }
    std::uint8_t
    readB(Addr addr) const
    {
        return static_cast<std::uint8_t>(read(addr, 1));
    }

    void writeQ(Addr addr, std::uint64_t v) { write(addr, v, 8); }
    void writeL(Addr addr, std::uint32_t v) { write(addr, v, 4); }
    void writeB(Addr addr, std::uint8_t v) { write(addr, v, 1); }

    /** Store an IEEE double's bit pattern. */
    void writeF(Addr addr, double v);
    /** Load an IEEE double from its bit pattern. */
    double readF(Addr addr) const;

    /** Number of pages currently allocated. */
    std::size_t pageCount() const { return pages_.size(); }

    /**
     * Deep copy of the image (fast-forward region snapshots, parallel
     * sampled runs). Explicit rather than a copy constructor so the
     * expensive page duplication never happens by accident.
     */
    MemoryImage clone() const;

    /** Allocated page numbers, sorted (checkpoint serialization). */
    std::vector<Addr> pageNumbers() const;

    /** Raw bytes of an allocated page (null if not allocated). */
    const std::uint8_t *pageData(Addr page_num) const;

    /** Install a whole page's bytes (checkpoint restore). */
    void importPage(Addr page_num, const std::uint8_t *data);

    /**
     * Order-independent FNV-1a hash of the written contents. Pages
     * that are entirely zero are skipped, so an image where a page was
     * allocated but only ever held zeros hashes identically to one
     * where it was never touched (reads of absent pages return zero —
     * the two are architecturally indistinguishable).
     */
    std::uint64_t contentHash() const;

  private:
    using Page = std::array<std::uint8_t, pageSize>;

    const Page *findPage(Addr addr) const;
    Page &touchPage(Addr addr);

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;

    /**
     * One-entry translation cache. The simulated working sets walk
     * small regions, so consecutive accesses overwhelmingly land on
     * the same page; caching the last page skips the hash lookup.
     * Pages are never deallocated while the image owns them, and a
     * move clears the source's cache, so the pointer cannot dangle.
     */
    mutable Addr cachedPageNum_ = ~Addr{0};
    mutable Page *cachedPage_ = nullptr;
};

} // namespace specslice::arch

#endif // SPECSLICE_ARCH_MEMIMG_HH
