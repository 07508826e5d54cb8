/**
 * @file
 * mmap-backed sstr trace reader. TraceFile validates the container
 * once at open (magic, version, section bounds, footer record count,
 * record-stream FNV) and exposes the header; TraceReader is a cheap
 * cursor over the record stream, decoding one chunk at a time so a
 * million-record trace never materializes in memory.
 */

#ifndef SPECSLICE_TRACE_READER_HH
#define SPECSLICE_TRACE_READER_HH

#include <optional>
#include <string>

#include "trace/format.hh"

namespace specslice::trace
{

class TraceReader;

/** An open, validated trace file (move-only: owns the mapping). */
class TraceFile
{
  public:
    /** Map and validate path. @return nullopt (and set error) on any
     *  structural problem: bad magic, unknown version, truncated
     *  section, footer/header record-count disagreement, FNV
     *  mismatch. */
    static std::optional<TraceFile> open(const std::string &path,
                                         std::string &error);

    TraceFile(TraceFile &&other) noexcept;
    TraceFile &operator=(TraceFile &&other) noexcept;
    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;
    ~TraceFile();

    const TraceMeta &meta() const { return meta_; }

    /** A fresh cursor at the first record. */
    TraceReader records() const;

  private:
    friend class TraceReader;

    TraceFile() = default;
    const std::uint8_t *at(std::uint64_t off) const { return data_ + off; }

    const std::uint8_t *data_ = nullptr;
    std::uint64_t size_ = 0;
    TraceMeta meta_;
    std::uint64_t recsOff_ = 0, recsSize_ = 0;
};

/**
 * Streaming cursor over a TraceFile's record stream. The TraceFile
 * must outlive every cursor. next() returns false at end-of-stream or
 * on a decode error; check ok() to tell them apart.
 */
class TraceReader
{
  public:
    /** Decode the next record. @return false at end or on error. */
    bool next(TraceRecord &out);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    /** Records decoded so far. */
    std::uint64_t position() const { return decoded_; }

  private:
    friend class TraceFile;
    explicit TraceReader(const TraceFile *file);

    bool openChunk();
    void fail(const std::string &what);

    const TraceFile *file_;
    std::uint64_t cursor_;        ///< offset of the next chunk header
    const std::uint8_t *p_ = nullptr;    ///< inside the open chunk
    const std::uint8_t *end_ = nullptr;
    std::uint32_t chunkLeft_ = 0; ///< records left in the open chunk
    std::uint64_t decoded_ = 0;
    std::int64_t prevNext_ = 0;
    std::int64_t prevMem_ = 0;
    std::string error_;
};

} // namespace specslice::trace

#endif // SPECSLICE_TRACE_READER_HH
