#include "arch/memimg.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace specslice::arch
{

MemoryImage::MemoryImage(MemoryImage &&other) noexcept
{
    *this = std::move(other);
}

MemoryImage &
MemoryImage::operator=(MemoryImage &&other) noexcept
{
    if (this != &other) {
        pages_ = std::move(other.pages_);
        other.pages_.clear();
        translations_ = other.translations_;
        other.clearTranslations();
    }
    return *this;
}

void
MemoryImage::clearTranslations()
{
    translations_.fill(Translation{});
}

const MemoryImage::Page *
MemoryImage::findPage(Addr addr) const
{
    Addr pnum = addr >> pageShift;
    Translation &t = translationFor(addr);
    if (t.pageNum == pnum)
        return t.page;
    const std::unique_ptr<Page> *slot = pages_.find(pnum);
    if (!slot)
        return nullptr;
    t = {pnum, slot->get()};
    return t.page;
}

MemoryImage::Page &
MemoryImage::touchPage(Addr addr)
{
    Addr pnum = addr >> pageShift;
    Translation &t = translationFor(addr);
    if (t.pageNum == pnum)
        return *t.page;
    SS_ASSERT(pnum != 0, "cannot map the null page");
    std::unique_ptr<Page> &slot = pages_[pnum];
    if (!slot)
        slot = std::make_unique<Page>();  // value-initialised: zeroed
    t = {pnum, slot.get()};
    return *slot;
}

std::uint64_t
MemoryImage::readSlow(Addr addr, unsigned n) const
{
    std::uint64_t value = 0;
    std::size_t off = addr & (pageSize - 1);
    if (off + n <= pageSize) {
        // Whole access within one page: a single lookup.
        const Page *p = findPage(addr);
        if (!p)
            return 0;
        for (unsigned i = 0; i < n; ++i)
            value |= static_cast<std::uint64_t>((*p)[off + i]) << (8 * i);
        return value;
    }
    // Page-straddling access: per-byte fallback.
    for (unsigned i = 0; i < n; ++i) {
        Addr a = addr + i;
        const Page *p = findPage(a);
        std::uint8_t byte = p ? (*p)[a & (pageSize - 1)] : 0;
        value |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return value;
}

void
MemoryImage::writeSlow(Addr addr, std::uint64_t value, unsigned n)
{
    std::size_t off = addr & (pageSize - 1);
    if (off + n <= pageSize) {
        Page &p = touchPage(addr);
        for (unsigned i = 0; i < n; ++i)
            p[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
        return;
    }
    for (unsigned i = 0; i < n; ++i) {
        Addr a = addr + i;
        touchPage(a)[a & (pageSize - 1)] =
            static_cast<std::uint8_t>(value >> (8 * i));
    }
}

MemoryImage
MemoryImage::clone() const
{
    MemoryImage copy;
    pages_.forEach([&copy](Addr pnum, const std::unique_ptr<Page> &page) {
        copy.pages_[pnum] = std::make_unique<Page>(*page);
    });
    return copy;
}

std::vector<Addr>
MemoryImage::pageNumbers() const
{
    std::vector<Addr> nums;
    nums.reserve(pages_.size());
    pages_.forEach([&nums](Addr pnum, const std::unique_ptr<Page> &) {
        nums.push_back(pnum);
    });
    std::sort(nums.begin(), nums.end());
    return nums;
}

const std::uint8_t *
MemoryImage::pageData(Addr page_num) const
{
    const std::unique_ptr<Page> *slot = pages_.find(page_num);
    return slot ? (*slot)->data() : nullptr;
}

void
MemoryImage::importPage(Addr page_num, const std::uint8_t *data)
{
    SS_ASSERT(page_num != 0, "cannot map the null page");
    std::unique_ptr<Page> &slot = pages_[page_num];
    if (!slot)
        slot = std::make_unique_for_overwrite<Page>();
    std::memcpy(slot->data(), data, pageSize);
    // The translation cache may point at a page this import replaced.
    clearTranslations();
}

std::uint64_t
MemoryImage::contentHash() const
{
    Fnv1a hash;
    for (Addr pnum : pageNumbers()) {
        const std::uint8_t *p = pageData(pnum);
        bool all_zero = true;
        for (std::size_t i = 0; i < pageSize; ++i) {
            if (p[i]) {
                all_zero = false;
                break;
            }
        }
        if (all_zero)
            continue;
        hash.u64(pnum);
        hash.bytes(p, pageSize);
    }
    return hash.value;
}

} // namespace specslice::arch
