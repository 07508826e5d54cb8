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
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/open_hash.hh"
#include "common/types.hh"
#include "isa/semantics.hh"

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

    /**
     * @return true if an n-byte access at addr touches the (always
     * unmapped) null page or runs past the top of the address space,
     * where it would wrap onto the null page.
     */
    static bool
    faults(Addr addr, unsigned n)
    {
        // Valid starts are [pageSize, 2^64 - n]; the subtraction moves
        // them to [0, 2^64 - n - pageSize] and everything else above.
        return addr - pageSize > Addr{0} - pageSize - n;
    }

    /** Read n bytes (n in {1,2,4,8}), little-endian. */
    std::uint64_t
    read(Addr addr, unsigned n) const
    {
        SS_ASSERT(n == 1 || n == 2 || n == 4 || n == 8, "bad access size");
        const std::size_t off = addr & (pageSize - 1);
        const Translation &t = translationFor(addr);
        if (t.pageNum == (addr >> pageShift) && off + n <= pageSize)
            [[likely]]
            return load(t.page->data() + off, n);
        return readSlow(addr, n);
    }

    /** Write n bytes (n in {1,2,4,8}), little-endian. */
    void
    write(Addr addr, std::uint64_t value, unsigned n)
    {
        SS_ASSERT(n == 1 || n == 2 || n == 4 || n == 8, "bad access size");
        SS_ASSERT(!faults(addr, n), "functional write to the null page");
        const std::size_t off = addr & (pageSize - 1);
        const Translation &t = translationFor(addr);
        if (t.pageNum == (addr >> pageShift) && off + n <= pageSize)
            [[likely]] {
            store(t.page->data() + off, value, n);
            return;
        }
        writeSlow(addr, value, n);
    }

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
    void writeF(Addr addr, double v) { writeQ(addr, isa::asBits(v)); }
    /** Load an IEEE double from its bit pattern. */
    double readF(Addr addr) const { return isa::asDouble(readQ(addr)); }

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

    // The inline accesses copy the value's bytes straight out of (or
    // into) the page, which is the little-endian layout only on a
    // little-endian host.
    static_assert(std::endian::native == std::endian::little,
                  "MemoryImage's in-page accesses assume a "
                  "little-endian host");

    /** One translation-cache entry: a page number and its page. */
    struct Translation
    {
        Addr pageNum = ~Addr{0};  ///< no page has this number
        Page *page = nullptr;
    };

    /** Translation-cache entries, direct-mapped on the page number's
     *  low bits. */
    static constexpr std::size_t translationEntries = 64;

    /** The entry addr's page maps to (it may hold another page). */
    Translation &
    translationFor(Addr addr) const
    {
        return translations_[(addr >> pageShift) &
                             (translationEntries - 1)];
    }

    // A switch on n gives every memcpy a constant size, so each one
    // compiles to a single load or store.
    static std::uint64_t
    load(const std::uint8_t *p, unsigned n)
    {
        switch (n) {
          case 1:
            return *p;
          case 2: {
            std::uint16_t v = 0;
            std::memcpy(&v, p, sizeof(v));
            return v;
          }
          case 4: {
            std::uint32_t v = 0;
            std::memcpy(&v, p, sizeof(v));
            return v;
          }
          default: {
            std::uint64_t v = 0;
            std::memcpy(&v, p, sizeof(v));
            return v;
          }
        }
    }

    static void
    store(std::uint8_t *p, std::uint64_t value, unsigned n)
    {
        switch (n) {
          case 1:
            *p = static_cast<std::uint8_t>(value);
            break;
          case 2: {
            const auto v = static_cast<std::uint16_t>(value);
            std::memcpy(p, &v, sizeof(v));
            break;
          }
          case 4: {
            const auto v = static_cast<std::uint32_t>(value);
            std::memcpy(p, &v, sizeof(v));
            break;
          }
          default:
            std::memcpy(p, &value, sizeof(value));
            break;
        }
    }

    /** Translation-cache misses and page-straddling accesses. */
    std::uint64_t readSlow(Addr addr, unsigned n) const;
    void writeSlow(Addr addr, std::uint64_t value, unsigned n);

    const Page *findPage(Addr addr) const;
    Page &touchPage(Addr addr);
    void clearTranslations();

    OpenHashMap<Addr, std::unique_ptr<Page>> pages_;

    /**
     * Direct-mapped translation cache over pages_. The simulated
     * working sets walk a few regions at a time, so most accesses hit
     * a cached page and skip the hash lookup. Only allocated pages are
     * cached. Pages are never freed while the image owns them, and a
     * move or an importPage clears the cache, so an entry cannot
     * dangle.
     */
    mutable std::array<Translation, translationEntries> translations_{};
};

} // namespace specslice::arch

#endif // SPECSLICE_ARCH_MEMIMG_HH
