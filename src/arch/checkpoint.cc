#include "arch/checkpoint.hh"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace specslice::arch
{

namespace
{

constexpr char magic[8] = {'S', 'S', 'C', 'K', 'P', 'T', '0', '\n'};

// All scalars are serialized little-endian byte by byte, so the format
// is identical on any host. Each warmth section is encoded into a
// buffer and written with one stream call, and read back in blocks of
// records: a stream call costs far more than the few bytes of a field,
// and the data-access log alone holds up to 128K records.

char *
putU64(char *p, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        p[i] = static_cast<char>(v >> (8 * i));
    return p + 8;
}

char *
putU32(char *p, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        p[i] = static_cast<char>(v >> (8 * i));
    return p + 4;
}

std::uint64_t
getU64(const char *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

std::uint32_t
getU32(const char *p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

bool
getU64(std::istream &is, std::uint64_t &v)
{
    char buf[8];
    if (!is.read(buf, 8))
        return false;
    v = getU64(buf);
    return true;
}

bool
getU32(std::istream &is, std::uint32_t &v)
{
    char buf[4];
    if (!is.read(buf, 4))
        return false;
    v = getU32(buf);
    return true;
}

void
writeBuf(std::ostream &os, const std::vector<char> &buf)
{
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

/** Encode a warmth section — its record count, then RecBytes bytes per
 *  record from encode(p, rec) — and write it with one call. */
template <std::size_t RecBytes, typename Rec, typename Encode>
void
writeSection(std::ostream &os, const std::vector<Rec> &recs,
             std::vector<char> &buf, Encode encode)
{
    buf.resize(8 + RecBytes * recs.size());
    char *p = putU64(buf.data(), recs.size());
    for (const Rec &r : recs)
        p = encode(p, r);
    writeBuf(os, buf);
}

/** Records per block read: bounds the staging buffer whatever the
 *  section's count. */
constexpr std::size_t blockRecords = 4096;

/**
 * Read recs.size() records of RecBytes bytes each, a block at a time,
 * and decode(p, rec) each; decode sets error and returns false on a
 * bad record. The whole records of a short block are decoded before
 * the truncation is reported, so the first error is the one a
 * record-at-a-time reader would meet.
 */
template <std::size_t RecBytes, typename Rec, typename Decode>
bool
readRecords(std::istream &is, std::vector<Rec> &recs,
            const char *truncated, std::string &error, Decode decode)
{
    std::vector<char> block(RecBytes *
                            std::min(recs.size(), blockRecords));
    for (std::size_t done = 0; done < recs.size();) {
        const std::size_t want = std::min(recs.size() - done, blockRecords);
        is.read(block.data(), static_cast<std::streamsize>(RecBytes * want));
        const std::size_t got =
            static_cast<std::size_t>(is.gcount()) / RecBytes;
        for (std::size_t i = 0; i < got; ++i)
            if (!decode(block.data() + RecBytes * i, recs[done + i]))
                return false;
        if (got < want) {
            error = truncated;
            return false;
        }
        done += want;
    }
    return true;
}

bool
pageIsZero(const std::uint8_t *p)
{
    for (std::size_t i = 0; i < MemoryImage::pageSize; ++i)
        if (p[i])
            return false;
    return true;
}

} // namespace

std::uint64_t
fingerprintProgram(const isa::Program &program)
{
    Fnv1a hash;
    for (const isa::CodeSection &sec : program.sections()) {
        hash.u64(sec.base);
        hash.u64(sec.code.size());
        for (const isa::Instruction &i : sec.code) {
            hash.u64(static_cast<std::uint64_t>(i.op) |
                     (std::uint64_t{i.ra} << 16) |
                     (std::uint64_t{i.rb} << 24) |
                     (std::uint64_t{i.rc} << 32));
            hash.u64(static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(i.imm)));
            hash.u64(i.target);
        }
    }
    return hash.value;
}

bool
saveCheckpoint(const Checkpoint &c, std::ostream &os)
{
    std::vector<char> buf(sizeof(magic) + 4 + 3 * 8);
    std::memcpy(buf.data(), magic, sizeof(magic));
    char *p = putU32(buf.data() + sizeof(magic), c.version);
    p = putU64(p, c.programFingerprint);
    p = putU64(p, c.instCount);
    putU64(p, c.pc);
    writeBuf(os, buf);

    buf.resize(8 * isa::numRegs);
    p = buf.data();
    for (unsigned r = 0; r < isa::numRegs; ++r)
        p = putU64(p, c.regs.read(static_cast<RegIndex>(r)));
    writeBuf(os, buf);

    writeSection<20>(os, c.warmth, buf,
                     [](char *q, const BranchWarmthRecord &w) {
                         q = putU64(q, w.pc);
                         q = putU64(q, w.target);
                         return putU32(
                             q, (static_cast<std::uint32_t>(w.kind) << 1) |
                                    (w.taken ? 1u : 0u));
                     });
    writeSection<12>(os, c.memWarmth, buf,
                     [](char *q, const MemWarmthRecord &m) {
                         return putU32(putU64(q, m.addr),
                                       m.isStore ? 1u : 0u);
                     });

    // All-zero pages are dropped: restoring without them is
    // architecturally identical (absent pages read as zero).
    std::vector<Addr> pages;
    for (Addr pnum : c.mem.pageNumbers())
        if (!pageIsZero(c.mem.pageData(pnum)))
            pages.push_back(pnum);
    char num[8];
    putU64(num, pages.size());
    os.write(num, 8);
    for (Addr pnum : pages) {
        putU64(num, pnum);
        os.write(num, 8);
        os.write(reinterpret_cast<const char *>(c.mem.pageData(pnum)),
                 static_cast<std::streamsize>(MemoryImage::pageSize));
    }

    // v3: instruction-line warmth, appended after the page section.
    writeSection<8>(os, c.instWarmth, buf,
                    [](char *q, Addr pc) { return putU64(q, pc); });
    return static_cast<bool>(os);
}

bool
saveCheckpointFile(const Checkpoint &c, const std::string &path,
                   std::string &error)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        error = "cannot open '" + path + "' for writing";
        return false;
    }
    if (!saveCheckpoint(c, os) || !(os.flush())) {
        error = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

std::optional<Checkpoint>
loadCheckpoint(std::istream &is, std::string &error)
{
    auto fail = [&](const std::string &msg) {
        error = msg;
        return std::nullopt;
    };

    char m[sizeof(magic)];
    if (!is.read(m, sizeof(m)) ||
        std::memcmp(m, magic, sizeof(magic)) != 0)
        return fail("not a specslice checkpoint (bad magic)");

    Checkpoint c;
    if (!getU32(is, c.version))
        return fail("truncated header");
    if (c.version != checkpointVersion)
        return fail("unsupported checkpoint version " +
                    std::to_string(c.version) + " (supported: " +
                    std::to_string(checkpointVersion) + ")");
    if (!getU64(is, c.programFingerprint) ||
        !getU64(is, c.instCount) || !getU64(is, c.pc))
        return fail("truncated header");

    char regs[8 * isa::numRegs];
    if (!is.read(regs, sizeof(regs)))
        return fail("truncated register file");
    for (unsigned r = 0; r < isa::numRegs; ++r)
        c.regs.write(static_cast<RegIndex>(r), getU64(regs + 8 * r));

    std::uint64_t warmth_count;
    if (!getU64(is, warmth_count))
        return fail("truncated warmth log");
    // A corrupt count must not drive a multi-gigabyte allocation.
    constexpr std::uint64_t maxWarmth = 1u << 24;
    if (warmth_count > maxWarmth)
        return fail("implausible warmth record count " +
                    std::to_string(warmth_count));
    c.warmth.resize(warmth_count);
    if (!readRecords<20>(
            is, c.warmth, "truncated warmth log", error,
            [&](const char *p, BranchWarmthRecord &w) {
                w.pc = getU64(p);
                w.target = getU64(p + 8);
                const std::uint32_t flags = getU32(p + 16);
                w.taken = flags & 1;
                const std::uint32_t kind = flags >> 1;
                if (kind >
                    static_cast<std::uint32_t>(WarmthKind::Indirect)) {
                    error = "bad warmth record kind " +
                            std::to_string(kind);
                    return false;
                }
                w.kind = static_cast<WarmthKind>(kind);
                return true;
            }))
        return std::nullopt;

    std::uint64_t mem_warmth_count;
    if (!getU64(is, mem_warmth_count))
        return fail("truncated memory warmth log");
    if (mem_warmth_count > maxWarmth)
        return fail("implausible memory warmth record count " +
                    std::to_string(mem_warmth_count));
    c.memWarmth.resize(mem_warmth_count);
    if (!readRecords<12>(
            is, c.memWarmth, "truncated memory warmth log", error,
            [&](const char *p, MemWarmthRecord &m) {
                m.addr = getU64(p);
                const std::uint32_t flags = getU32(p + 8);
                if (flags > 1) {
                    error = "bad memory warmth record flags " +
                            std::to_string(flags);
                    return false;
                }
                m.isStore = flags != 0;
                return true;
            }))
        return std::nullopt;

    std::uint64_t page_count;
    if (!getU64(is, page_count))
        return fail("truncated page table");
    // One read per page: its number, then its bytes.
    std::vector<char> page(8 + MemoryImage::pageSize);
    for (std::uint64_t i = 0; i < page_count; ++i) {
        is.read(page.data(), static_cast<std::streamsize>(page.size()));
        const auto got = static_cast<std::size_t>(is.gcount());
        if (got < 8)
            return fail("truncated page table");
        const std::uint64_t pnum = getU64(page.data());
        if (pnum == 0)
            return fail("checkpoint maps the null page");
        if (got < page.size())
            return fail("truncated page data");
        c.mem.importPage(
            pnum, reinterpret_cast<const std::uint8_t *>(page.data() + 8));
    }

    std::uint64_t inst_warmth_count;
    if (!getU64(is, inst_warmth_count))
        return fail("truncated instruction warmth log");
    if (inst_warmth_count > maxWarmth)
        return fail("implausible instruction warmth record count " +
                    std::to_string(inst_warmth_count));
    c.instWarmth.resize(inst_warmth_count);
    if (!readRecords<8>(is, c.instWarmth,
                        "truncated instruction warmth log", error,
                        [](const char *p, Addr &pc) {
                            pc = getU64(p);
                            return true;
                        }))
        return std::nullopt;
    return c;
}

std::optional<Checkpoint>
loadCheckpointFile(const std::string &path, std::string &error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        error = "cannot open checkpoint '" + path + "'";
        return std::nullopt;
    }
    return loadCheckpoint(is, error);
}

} // namespace specslice::arch
