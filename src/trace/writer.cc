#include "trace/writer.hh"

#include "isa/opcodes.hh"

namespace specslice::trace
{

namespace
{

void
putU32(std::ostream &os, std::uint32_t v)
{
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    os.write(reinterpret_cast<const char *>(b), sizeof(b));
}

void
putU64(std::ostream &os, std::uint64_t v)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    os.write(reinterpret_cast<const char *>(b), sizeof(b));
}

void
putString(std::ostream &os, const std::string &s)
{
    putU32(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

} // namespace

TraceWriter::TraceWriter(const std::string &path, const TraceMeta &meta)
    : os_(path, std::ios::binary | std::ios::trunc)
{
    if (!os_) {
        fail("cannot open '" + path + "' for writing");
        return;
    }
    os_.write(traceMagic, sizeof(traceMagic));
    putU32(os_, traceFormatVersion);
    putU64(os_, 0);  // flags (reserved)
    countPos_ = os_.tellp();
    putU64(os_, 0);  // recordCount, patched by finalize()
    putU64(os_, meta.entryPc);
    putU64(os_, meta.programFingerprint);
    putU64(os_, meta.dataSeed);
    putU64(os_, meta.scale);
    putString(os_, meta.name);
    beginSection(tagRecords, 0);  // size patched by finalize()
    recsSizePos_ = os_.tellp() - std::streamoff(8);
}

void
TraceWriter::fail(const std::string &what)
{
    if (error_.empty())
        error_ = what;
}

void
TraceWriter::beginSection(std::uint32_t tag, std::uint64_t size)
{
    putU32(os_, tag);
    putU64(os_, size);
}

void
TraceWriter::append(const TraceRecord &rec)
{
    if (!ok() || finalized_)
        return;
    std::uint8_t head = static_cast<std::uint8_t>(rec.kind);
    if (rec.taken)
        head |= 0x10;
    chunk_.push_back(static_cast<char>(head));
    const auto pc = static_cast<std::int64_t>(rec.pc);
    putVarint(chunk_, zigzagEncode(pc - prevNext_));
    prevNext_ = pc + static_cast<std::int64_t>(isa::instBytes);
    if (kindHasTarget(rec.kind))
        putVarint(chunk_,
                  zigzagEncode(static_cast<std::int64_t>(rec.target) -
                               pc));
    if (kindHasMemAddr(rec.kind)) {
        const auto addr = static_cast<std::int64_t>(rec.memAddr);
        putVarint(chunk_, zigzagEncode(addr - prevMem_));
        prevMem_ = addr;
    }
    ++records_;
    if (++chunkRecords_ >= recordsPerChunk)
        flushChunk();
}

void
TraceWriter::flushChunk()
{
    if (!chunkRecords_)
        return;
    putU32(os_, static_cast<std::uint32_t>(chunk_.size()));
    putU32(os_, chunkRecords_);
    os_.write(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
    recsFnv_.bytes(chunk_.data(), chunk_.size());
    chunk_.clear();
    chunkRecords_ = 0;
    prevNext_ = 0;
    prevMem_ = 0;
}

bool
TraceWriter::finalize()
{
    if (finalized_)
        return ok();
    finalized_ = true;
    if (!ok())
        return false;
    flushChunk();
    const std::streampos recs_end = os_.tellp();
    const std::uint64_t recs_size = static_cast<std::uint64_t>(
        recs_end - recsSizePos_ - std::streamoff(8));

    beginSection(tagFooter, 16);
    putU64(os_, records_);
    putU64(os_, recsFnv_.value);

    os_.seekp(recsSizePos_);
    putU64(os_, recs_size);
    os_.seekp(countPos_);
    putU64(os_, records_);
    os_.flush();
    if (!os_.good())
        fail("write error while finalizing trace");
    os_.close();
    return ok();
}

} // namespace specslice::trace
