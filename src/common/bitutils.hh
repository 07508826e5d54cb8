/**
 * @file
 * Bit-manipulation helpers used by predictors and caches, and the
 * one FNV-1a hash.
 */

#ifndef SPECSLICE_COMMON_BITUTILS_HH
#define SPECSLICE_COMMON_BITUTILS_HH

#include <cstddef>
#include <cstdint>

#include "common/logging.hh"

namespace specslice
{

/** @return true if x is a power of two (and non-zero). */
constexpr bool
isPowerOf2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** @return floor(log2(x)); x must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t x)
{
    unsigned l = 0;
    while (x >>= 1)
        ++l;
    return l;
}

/** @return ceil(log2(x)); x must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t x)
{
    return isPowerOf2(x) ? floorLog2(x) : floorLog2(x) + 1;
}

/** @return a mask of the low n bits (n <= 64). */
constexpr std::uint64_t
mask(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
}

/** Extract bits [lo, lo+n) of x. */
constexpr std::uint64_t
bits(std::uint64_t x, unsigned lo, unsigned n)
{
    return (x >> lo) & mask(n);
}

/** Sign-extend the low n bits of x to 64 bits. */
constexpr std::int64_t
signExtend(std::uint64_t x, unsigned n)
{
    SS_ASSERT(n >= 1 && n <= 64, "bad width");
    if (n == 64)
        return static_cast<std::int64_t>(x);
    std::uint64_t sign = std::uint64_t{1} << (n - 1);
    return static_cast<std::int64_t>(((x & mask(n)) ^ sign)) -
           static_cast<std::int64_t>(sign);
}

/**
 * A small saturating counter, the building block of direction
 * predictors.
 */
class SatCounter
{
  public:
    explicit SatCounter(unsigned bits_ = 2, unsigned initial = 0)
        : max_((1u << bits_) - 1), value_(initial)
    {
        SS_ASSERT(bits_ >= 1 && bits_ <= 8, "bad counter width");
        SS_ASSERT(initial <= max_, "bad initial value");
    }

    void increment() { if (value_ < max_) ++value_; }
    void decrement() { if (value_ > 0) --value_; }

    /** Update toward taken (true) or not-taken (false). */
    void update(bool taken) { taken ? increment() : decrement(); }

    /** @return true if the counter predicts taken. */
    bool taken() const { return value_ > max_ / 2; }

    unsigned value() const { return value_; }
    unsigned maxValue() const { return max_; }

    void set(unsigned v) { SS_ASSERT(v <= max_, "overflow"); value_ = v; }

  private:
    unsigned max_;
    unsigned value_;
};

/**
 * 64-bit FNV-1a: the trace footer's record-stream check,
 * MemoryImage::contentHash and arch::fingerprintProgram. Traces and
 * checkpoints store the footer value and the program fingerprint, so
 * the mixing order and the start value are part of both formats.
 */
struct Fnv1a
{
    static constexpr std::uint64_t offsetBasis = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t prime = 0x100000001b3ull;

    std::uint64_t value = offsetBasis;

    /** Mix len bytes at data. */
    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        std::uint64_t h = value;
        for (std::size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= prime;
        }
        value = h;
    }

    /** Mix v as its 8 bytes, least significant first. */
    void
    u64(std::uint64_t v)
    {
        std::uint64_t h = value;
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= prime;
        }
        value = h;
    }
};

} // namespace specslice

#endif // SPECSLICE_COMMON_BITUTILS_HH
