/**
 * @file
 * A small open-addressed hash map for hot-path indexes keyed by
 * integers (addresses, tokens). Linear probing over a power-of-two
 * cell array with tombstoned deletion: lookups are one mixed hash and
 * a short contiguous probe — no node allocation, no bucket chains,
 * and no per-lookup indirection beyond the cell array itself.
 *
 * Semantics are the subset of std::unordered_map the simulator's
 * index structures need: find / operator[] / erase / eraseIf / size /
 * clear.
 * Iteration order is unspecified (callers that need ordered walks
 * keep their own ordered container and use the map as an index).
 */

#ifndef SPECSLICE_COMMON_OPEN_HASH_HH
#define SPECSLICE_COMMON_OPEN_HASH_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace specslice
{

/** splitmix64 finalizer: cheap, well-mixed integer hash. */
inline std::uint64_t
mixHash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

template <typename Key, typename Value>
class OpenHashMap
{
  public:
    /** @return the value mapped at key, or nullptr. */
    Value *
    find(const Key &key)
    {
        if (cells_.empty())
            return nullptr;
        std::size_t i = probeStart(key);
        for (;;) {
            Cell &c = cells_[i];
            if (c.state == State::Empty)
                return nullptr;
            if (c.state == State::Full && c.key == key)
                return &c.value;
            i = (i + 1) & mask();
        }
    }

    const Value *
    find(const Key &key) const
    {
        return const_cast<OpenHashMap *>(this)->find(key);
    }

    bool contains(const Key &key) const { return find(key) != nullptr; }

    /** @return the value at key, default-constructing it if absent. */
    Value &
    operator[](const Key &key)
    {
        maybeGrow();
        std::size_t i = probeStart(key);
        std::size_t first_tomb = notFound;
        for (;;) {
            Cell &c = cells_[i];
            if (c.state == State::Full && c.key == key)
                return c.value;
            if (c.state == State::Tombstone && first_tomb == notFound)
                first_tomb = i;
            if (c.state == State::Empty) {
                std::size_t target =
                    first_tomb != notFound ? first_tomb : i;
                Cell &t = cells_[target];
                if (t.state == State::Tombstone)
                    --tombstones_;
                t.state = State::Full;
                t.key = key;
                t.value = Value{};
                ++size_;
                return t.value;
            }
            i = (i + 1) & mask();
        }
    }

    /** Insert or overwrite. */
    void
    insert(const Key &key, Value value)
    {
        (*this)[key] = std::move(value);
    }

    /** @return true if the key was present. */
    bool
    erase(const Key &key)
    {
        if (cells_.empty())
            return false;
        std::size_t i = probeStart(key);
        for (;;) {
            Cell &c = cells_[i];
            if (c.state == State::Empty)
                return false;
            if (c.state == State::Full && c.key == key) {
                c.state = State::Tombstone;
                c.value = Value{};  // release held storage promptly
                --size_;
                ++tombstones_;
                return true;
            }
            i = (i + 1) & mask();
        }
    }

    /** Erase every pair for which pred(key, value) holds. */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        for (Cell &c : cells_) {
            if (c.state == State::Full && pred(c.key, c.value)) {
                c.state = State::Tombstone;
                c.value = Value{};
                --size_;
                ++tombstones_;
            }
        }
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    clear()
    {
        cells_.clear();
        size_ = 0;
        tombstones_ = 0;
    }

    /** Visit every (key, value) pair, in unspecified order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Cell &c : cells_) {
            if (c.state == State::Full)
                fn(c.key, c.value);
        }
    }

  private:
    enum class State : std::uint8_t { Empty = 0, Tombstone, Full };

    struct Cell
    {
        Key key{};
        Value value{};
        State state = State::Empty;
    };

    static constexpr std::size_t notFound = ~std::size_t{0};
    static constexpr std::size_t initialCapacity = 16;

    std::size_t mask() const { return cells_.size() - 1; }

    std::size_t
    probeStart(const Key &key) const
    {
        return static_cast<std::size_t>(
                   mixHash(static_cast<std::uint64_t>(key))) &
               mask();
    }

    void
    maybeGrow()
    {
        if (cells_.empty()) {
            cells_.resize(initialCapacity);
            return;
        }
        // Rehash at 70% occupancy (live + tombstones) so probes stay
        // short; rebuilding also sweeps the tombstones out.
        if ((size_ + tombstones_) * 10 < cells_.size() * 7)
            return;
        std::vector<Cell> old;
        old.swap(cells_);
        // Grow only if the live count justifies it; a tombstone-heavy
        // table rehashes at the same size.
        std::size_t cap = old.size();
        if (size_ * 10 >= cap * 5)
            cap *= 2;
        cells_.resize(cap);
        size_ = 0;
        tombstones_ = 0;
        for (Cell &c : old) {
            if (c.state == State::Full)
                (*this)[c.key] = std::move(c.value);
        }
    }

    std::vector<Cell> cells_;
    std::size_t size_ = 0;
    std::size_t tombstones_ = 0;
};

} // namespace specslice

#endif // SPECSLICE_COMMON_OPEN_HASH_HH
