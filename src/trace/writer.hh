/**
 * @file
 * Streaming sstr trace writer: the header, the record stream and the
 * footer. The record count is patched into the header by finalize(),
 * so a writer that dies mid-stream leaves a file the reader rejects
 * rather than a silently short trace.
 */

#ifndef SPECSLICE_TRACE_WRITER_HH
#define SPECSLICE_TRACE_WRITER_HH

#include <fstream>
#include <string>

#include "common/bitutils.hh"
#include "trace/format.hh"

namespace specslice::trace
{

class TraceWriter
{
  public:
    /** Open path and write the header and the RECS section header.
     *  Check ok() before streaming. */
    TraceWriter(const std::string &path, const TraceMeta &meta);

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    bool ok() const { return error_.empty() && os_.good(); }
    const std::string &error() const { return error_; }

    /** Append one record to the stream. */
    void append(const TraceRecord &rec);

    /** Flush the last chunk, write the footer, patch the header.
     *  @return false (with error() set) if anything failed. */
    bool finalize();

    std::uint64_t recordCount() const { return records_; }

  private:
    void beginSection(std::uint32_t tag, std::uint64_t size);
    void flushChunk();
    void fail(const std::string &what);

    std::ofstream os_;
    std::string error_;
    std::string chunk_;          ///< encoded bytes of the open chunk
    std::uint32_t chunkRecords_ = 0;
    std::uint64_t records_ = 0;
    Fnv1a recsFnv_{recordHashStart};  ///< over RECS payload bytes
    std::int64_t prevNext_ = 0;  ///< expected PC of the next record
    std::int64_t prevMem_ = 0;   ///< previous memory address
    std::streampos countPos_;    ///< header recordCount offset
    std::streampos recsSizePos_; ///< RECS section size offset
    bool finalized_ = false;
};

} // namespace specslice::trace

#endif // SPECSLICE_TRACE_WRITER_HH
