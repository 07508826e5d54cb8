#include "mem/stream_prefetcher.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace specslice::mem
{

StreamPrefetcher::StreamPrefetcher(unsigned streams, unsigned line_size,
                                   unsigned degree, bool sequential)
    : lineShift_(floorLog2(line_size)), degree_(degree),
      sequential_(sequential)
{
    SS_ASSERT(isPowerOf2(line_size), "line size must be a power of two");
    streams_.resize(streams);
}

const std::vector<Addr> &
StreamPrefetcher::onMiss(Addr addr)
{
    out_.clear();
    const auto line_num = static_cast<std::int64_t>(addr >> lineShift_);

    // Look for a stream this miss continues (distance of one line,
    // either direction, or continuing a confirmed stride).
    for (Stream &s : streams_) {
        if (!s.valid)
            continue;
        std::int64_t delta = line_num - s.lastLine;
        if (delta == 0)
            return out_;  // repeated miss on same line; nothing new
        bool continues =
            (s.stride != 0 && delta == s.stride) ||
            (s.stride == 0 && (delta == 1 || delta == -1));
        if (continues) {
            s.stride = delta;
            s.lastLine = line_num;
            s.confidence = s.confidence < 4 ? s.confidence + 1 : 4;
            s.lru = ++lruClock_;
            // Confirmed stream: run ahead by 'degree' lines.
            for (unsigned d = 1; d <= degree_; ++d) {
                std::int64_t target =
                    line_num + s.stride * static_cast<std::int64_t>(d);
                if (target >= 0)
                    out_.push_back(static_cast<Addr>(target) << lineShift_);
            }
            return out_;
        }
    }

    // New stream: allocate (LRU victim) and optionally issue the
    // speculative sequential next-line prefetch.
    Stream *victim = nullptr;
    for (Stream &s : streams_) {
        if (!s.valid) {
            victim = &s;
            break;
        }
        if (!victim || s.lru < victim->lru)
            victim = &s;
    }
    victim->valid = true;
    victim->lastLine = line_num;
    victim->stride = 0;
    victim->confidence = 0;
    victim->lru = ++lruClock_;

    if (sequential_)
        out_.push_back((static_cast<Addr>(line_num) + 1) << lineShift_);
    return out_;
}

} // namespace specslice::mem
