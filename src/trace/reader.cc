#include "trace/reader.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bitutils.hh"
#include "isa/opcodes.hh"

namespace specslice::trace
{

namespace
{

/** Bounds-checked little-endian cursor over a byte range. */
struct Cursor
{
    const std::uint8_t *p;
    const std::uint8_t *end;
    bool ok = true;

    std::uint64_t
    remaining() const
    {
        return static_cast<std::uint64_t>(end - p);
    }

    std::uint32_t
    u32()
    {
        if (remaining() < 4) {
            ok = false;
            return 0;
        }
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
        p += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (remaining() < 8) {
            ok = false;
            return 0;
        }
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        p += 8;
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        if (!ok || remaining() < len) {
            ok = false;
            return "";
        }
        std::string s(reinterpret_cast<const char *>(p), len);
        p += len;
        return s;
    }
};

} // namespace

std::optional<TraceFile>
TraceFile::open(const std::string &path, std::string &error)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = "cannot open trace '" + path + "': " +
                std::strerror(errno);
        return std::nullopt;
    }
    struct stat st;
    if (fstat(fd, &st) != 0) {
        error = "cannot stat trace '" + path + "'";
        ::close(fd);
        return std::nullopt;
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if (size < 56) {
        error = "trace '" + path + "' is too short to hold a header";
        ::close(fd);
        return std::nullopt;
    }
    void *map = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
        error = "cannot mmap trace '" + path + "'";
        return std::nullopt;
    }

    TraceFile f;
    f.data_ = static_cast<const std::uint8_t *>(map);
    f.size_ = size;

    Cursor c{f.data_, f.data_ + size};
    if (std::memcmp(c.p, traceMagic, sizeof(traceMagic)) != 0) {
        error = "'" + path + "' is not an sstr trace (bad magic)";
        return std::nullopt;  // f's destructor unmaps
    }
    c.p += sizeof(traceMagic);
    const std::uint32_t version = c.u32();
    if (version != traceFormatVersion) {
        error = "trace '" + path + "' has format version " +
                std::to_string(version) + "; this build reads version " +
                std::to_string(traceFormatVersion);
        return std::nullopt;
    }
    const std::uint64_t flags = c.u64();
    if (flags != 0) {
        error = "trace '" + path + "' sets reserved header flags";
        return std::nullopt;
    }
    f.meta_.recordCount = c.u64();
    f.meta_.entryPc = c.u64();
    f.meta_.programFingerprint = c.u64();
    f.meta_.dataSeed = c.u64();
    f.meta_.scale = c.u64();
    f.meta_.name = c.str();
    if (!c.ok) {
        error = "trace '" + path + "' has a truncated header";
        return std::nullopt;
    }

    // Walk the section table; unknown tags are skipped.
    bool saw_footer = false;
    std::uint64_t footer_count = 0, footer_fnv = 0;
    while (c.remaining() > 0) {
        const std::uint32_t tag = c.u32();
        const std::uint64_t sec_size = c.u64();
        if (!c.ok || c.remaining() < sec_size) {
            error = "trace '" + path + "' has a truncated section";
            return std::nullopt;
        }
        if (tag == tagRecords) {
            f.recsOff_ = static_cast<std::uint64_t>(c.p - f.data_);
            f.recsSize_ = sec_size;
        } else if (tag == tagFooter) {
            Cursor fc{c.p, c.p + sec_size};
            footer_count = fc.u64();
            footer_fnv = fc.u64();
            if (!fc.ok) {
                error = "trace '" + path + "' has a truncated footer";
                return std::nullopt;
            }
            saw_footer = true;
        }
        c.p += sec_size;
    }
    if (!saw_footer) {
        error = "trace '" + path +
                "' has no footer (writer died mid-stream?)";
        return std::nullopt;
    }
    if (footer_count != f.meta_.recordCount) {
        error = "trace '" + path + "' header/footer record counts " +
                "disagree (" + std::to_string(f.meta_.recordCount) +
                " vs " + std::to_string(footer_count) + ")";
        return std::nullopt;
    }

    // Hash the record payloads (chunk headers excluded, matching the
    // writer) so bit rot inside the stream is caught at open.
    Fnv1a fnv{recordHashStart};
    {
        Cursor rc{f.data_ + f.recsOff_, f.data_ + f.recsOff_ + f.recsSize_};
        while (rc.remaining() > 0) {
            const std::uint32_t nbytes = rc.u32();
            const std::uint32_t nrecs = rc.u32();
            (void)nrecs;
            if (!rc.ok || rc.remaining() < nbytes) {
                error = "trace '" + path + "' has a truncated chunk";
                return std::nullopt;
            }
            fnv.bytes(rc.p, nbytes);
            rc.p += nbytes;
        }
    }
    if (fnv.value != footer_fnv) {
        error = "trace '" + path +
                "' record stream fails its integrity check";
        return std::nullopt;
    }
    return f;
}

TraceFile::TraceFile(TraceFile &&other) noexcept { *this = std::move(other); }

TraceFile &
TraceFile::operator=(TraceFile &&other) noexcept
{
    if (this != &other) {
        if (data_)
            munmap(const_cast<std::uint8_t *>(data_), size_);
        data_ = other.data_;
        size_ = other.size_;
        meta_ = std::move(other.meta_);
        recsOff_ = other.recsOff_;
        recsSize_ = other.recsSize_;
        other.data_ = nullptr;
        other.size_ = 0;
    }
    return *this;
}

TraceFile::~TraceFile()
{
    if (data_)
        munmap(const_cast<std::uint8_t *>(data_), size_);
}

TraceReader
TraceFile::records() const
{
    return TraceReader(this);
}

TraceReader::TraceReader(const TraceFile *file)
    : file_(file), cursor_(file->recsOff_)
{
}

void
TraceReader::fail(const std::string &what)
{
    if (error_.empty())
        error_ = what;
    chunkLeft_ = 0;
    p_ = end_ = nullptr;
    cursor_ = file_->recsOff_ + file_->recsSize_;
}

bool
TraceReader::openChunk()
{
    const std::uint64_t recs_end = file_->recsOff_ + file_->recsSize_;
    if (cursor_ >= recs_end) {
        if (decoded_ != file_->meta().recordCount)
            fail("record stream ended after " +
                 std::to_string(decoded_) + " of " +
                 std::to_string(file_->meta().recordCount) + " records");
        return false;
    }
    if (recs_end - cursor_ < 8) {
        fail("truncated chunk header");
        return false;
    }
    const std::uint8_t *hdr = file_->at(cursor_);
    std::uint32_t nbytes = 0, nrecs = 0;
    for (int i = 0; i < 4; ++i) {
        nbytes |= static_cast<std::uint32_t>(hdr[i]) << (8 * i);
        nrecs |= static_cast<std::uint32_t>(hdr[4 + i]) << (8 * i);
    }
    if (recs_end - cursor_ - 8 < nbytes) {
        fail("chunk payload overruns the record section");
        return false;
    }
    if (nrecs == 0) {
        fail("empty chunk");
        return false;
    }
    p_ = hdr + 8;
    end_ = p_ + nbytes;
    chunkLeft_ = nrecs;
    cursor_ += 8 + nbytes;
    prevNext_ = 0;
    prevMem_ = 0;
    return true;
}

bool
TraceReader::next(TraceRecord &out)
{
    if (!ok())
        return false;
    if (chunkLeft_ == 0 && !openChunk())
        return false;

    if (p_ >= end_) {
        fail("chunk ran out of bytes mid-record");
        return false;
    }
    const std::uint8_t head = *p_++;
    const std::uint8_t kind_bits = head & 0x0f;
    if (kind_bits >= numRecordKinds || (head & ~std::uint8_t{0x1f})) {
        fail("record " + std::to_string(decoded_) +
             " has an invalid head byte");
        return false;
    }
    out.kind = static_cast<RecordKind>(kind_bits);
    out.taken = (head & 0x10) != 0;
    out.target = invalidAddr;
    out.memAddr = invalidAddr;

    std::uint64_t raw = 0;
    if (!getVarint(p_, end_, raw)) {
        fail("record " + std::to_string(decoded_) + " has a bad pc varint");
        return false;
    }
    const std::int64_t pc = prevNext_ + zigzagDecode(raw);
    out.pc = static_cast<Addr>(pc);
    prevNext_ = pc + static_cast<std::int64_t>(isa::instBytes);

    if (kindHasTarget(out.kind)) {
        if (!getVarint(p_, end_, raw)) {
            fail("record " + std::to_string(decoded_) +
                 " has a bad target varint");
            return false;
        }
        out.target = static_cast<Addr>(pc + zigzagDecode(raw));
    }
    if (kindHasMemAddr(out.kind)) {
        if (!getVarint(p_, end_, raw)) {
            fail("record " + std::to_string(decoded_) +
                 " has a bad address varint");
            return false;
        }
        prevMem_ += zigzagDecode(raw);
        out.memAddr = static_cast<Addr>(prevMem_);
    }
    --chunkLeft_;
    ++decoded_;
    return true;
}

const char *
recordKindName(RecordKind k)
{
    switch (k) {
      case RecordKind::Other:
        return "other";
      case RecordKind::CondBranch:
        return "cond";
      case RecordKind::UncondDirect:
        return "jump";
      case RecordKind::Call:
        return "call";
      case RecordKind::Return:
        return "return";
      case RecordKind::IndirectJump:
        return "indirect";
      case RecordKind::IndirectCall:
        return "indirect_call";
      case RecordKind::Load:
        return "load";
      case RecordKind::Store:
        return "store";
      case RecordKind::Halt:
        return "halt";
    }
    return "unknown";
}

} // namespace specslice::trace
