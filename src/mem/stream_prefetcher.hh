/**
 * @file
 * Hardware stream prefetcher (Table 1): detects cache misses with unit
 * stride (positive and negative) and launches prefetches; additionally
 * prefetches sequential blocks (before a stride is confirmed) to
 * exploit spatial locality beyond one line.
 */

#ifndef SPECSLICE_MEM_STREAM_PREFETCHER_HH
#define SPECSLICE_MEM_STREAM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace specslice::mem
{

class StreamPrefetcher
{
  public:
    /**
     * @param streams number of concurrently tracked miss streams
     * @param line_size cache line size the stride is measured in
     * @param degree lines prefetched ahead once a stream is confirmed
     * @param sequential also issue a next-line prefetch on first miss
     */
    StreamPrefetcher(unsigned streams, unsigned line_size, unsigned degree,
                     bool sequential);

    /**
     * Observe a demand miss and decide what to prefetch.
     * @return line addresses to prefetch (possibly empty), in a
     *         buffer the next call reuses.
     */
    const std::vector<Addr> &onMiss(Addr addr);

  private:
    struct Stream
    {
        bool valid = false;
        std::int64_t lastLine = 0;  ///< line number (address >> shift)
        std::int64_t stride = 0;   ///< in lines; 0 = not yet confirmed
        unsigned confidence = 0;
        std::uint64_t lru = 0;
    };

    unsigned lineShift_;  ///< log2 of the line size
    unsigned degree_;
    bool sequential_;
    std::uint64_t lruClock_ = 0;
    std::vector<Stream> streams_;
    std::vector<Addr> out_;  ///< onMiss result, reused
};

} // namespace specslice::mem

#endif // SPECSLICE_MEM_STREAM_PREFETCHER_HH
