/**
 * @file
 * sstr trace-format tests: varint edge cases, record round-trips over
 * the full kind/delta space, structural rejection of truncated and
 * corrupted files, the skip rule for unknown sections, and, for every
 * workload, a records-only trace that matches a functional
 * re-execution of the workload its header names, which rebuilds to
 * the emitted one.
 */

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "branch/predictor_client.hh"
#include "arch/checkpoint.hh"
#include "arch/memimg.hh"
#include "check/digest.hh"
#include "sim/experiments.hh"
#include "sim/result_json.hh"
#include "sim/simulator.hh"
#include "trace/format.hh"
#include "trace/frontend.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

/** Fresh per-test scratch path, removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string &stem)
    {
        static int counter = 0;
        path_ = (std::filesystem::temp_directory_path() /
                 (stem + "_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter++) + ".sstr"))
                    .string();
        std::filesystem::remove(path_);
    }

    ~TempFile()
    {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(is),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

/** The n-byte little-endian integer at off. */
std::uint64_t
leAt(const std::vector<std::uint8_t> &bytes, std::size_t off, int n)
{
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
        v |= std::uint64_t{bytes.at(off + i)} << (8 * i);
    return v;
}

/** Append v as n little-endian bytes. */
void
putLe(std::vector<std::uint8_t> &out, std::uint64_t v, int n)
{
    for (int i = 0; i < n; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Bytes before the first section: the fixed fields, then the name
 *  whose u32 length sits at offset 56. */
std::size_t
headerBytes(const std::vector<std::uint8_t> &bytes)
{
    return 60 + leAt(bytes, 56, 4);
}

/** One { u32 tag; u64 size; payload } section of a trace image. */
struct Section
{
    std::string tag;
    std::size_t body;  ///< offset of the payload
    std::uint64_t size;
};

std::vector<Section>
sectionsOf(const std::vector<std::uint8_t> &bytes)
{
    std::vector<Section> out;
    for (std::size_t off = headerBytes(bytes); off + 12 <= bytes.size();) {
        Section s{std::string(bytes.begin() + static_cast<long>(off),
                              bytes.begin() + static_cast<long>(off) + 4),
                  off + 12, leAt(bytes, off + 4, 8)};
        off = s.body + s.size;
        out.push_back(std::move(s));
    }
    return out;
}

/** The section tags of a trace image, in file order. */
std::vector<std::string>
sectionTags(const std::vector<std::uint8_t> &bytes)
{
    std::vector<std::string> tags;
    for (const Section &s : sectionsOf(bytes))
        tags.push_back(s.tag);
    return tags;
}

/** The workload a trace's header names, rebuilt from its name, scale
 *  and seed. */
sim::Workload
workloadOf(const trace::TraceMeta &meta)
{
    workloads::Params p;
    p.scale = meta.scale;
    p.seed = meta.dataSeed;
    return workloads::buildWorkload(meta.name, p);
}

trace::TraceMeta
recordsOnlyMeta(std::uint64_t entry = 0x1000)
{
    trace::TraceMeta meta;
    meta.name = "synthetic";
    meta.entryPc = entry;
    meta.programFingerprint = 0;
    meta.dataSeed = 7;
    meta.scale = 0;
    return meta;
}

} // namespace

// ---------------------------------------------------------------
// Varints
// ---------------------------------------------------------------

TEST(TraceFormatTest, VarintRoundTripsBoundaryValues)
{
    const std::uint64_t cases[] = {
        0,
        1,
        127,
        128,
        129,
        16'383,
        16'384,
        (1ull << 21) - 1,
        1ull << 21,
        (1ull << 35) + 12'345,
        (1ull << 56) - 1,
        1ull << 56,
        (1ull << 63) - 1,
        1ull << 63,
        std::numeric_limits<std::uint64_t>::max(),
    };
    for (std::uint64_t v : cases) {
        std::string buf;
        trace::putVarint(buf, v);
        ASSERT_LE(buf.size(), 10u) << v;
        const auto *p =
            reinterpret_cast<const std::uint8_t *>(buf.data());
        const auto *end = p + buf.size();
        std::uint64_t got = 0;
        ASSERT_TRUE(trace::getVarint(p, end, got)) << v;
        EXPECT_EQ(got, v);
        EXPECT_EQ(p, end) << "decoder must consume every byte for " << v;
    }
}

TEST(TraceFormatTest, VarintRejectsTruncationAndOverflow)
{
    std::string buf;
    trace::putVarint(buf, std::numeric_limits<std::uint64_t>::max());
    // Every proper prefix is a truncated varint.
    for (std::size_t len = 0; len < buf.size(); ++len) {
        const auto *p =
            reinterpret_cast<const std::uint8_t *>(buf.data());
        const auto *end = p + len;
        std::uint64_t v = 0;
        EXPECT_FALSE(trace::getVarint(p, end, v)) << len;
    }
    // 10 continuation-heavy bytes encoding more than 64 bits.
    const std::uint8_t over[] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                 0xff, 0xff, 0xff, 0xff, 0x7f};
    const std::uint8_t *p = over;
    std::uint64_t v = 0;
    EXPECT_FALSE(trace::getVarint(p, p + sizeof(over), v));
}

TEST(TraceFormatTest, ZigzagRoundTripsExtremes)
{
    const std::int64_t cases[] = {
        0,
        1,
        -1,
        63,
        -64,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min(),
    };
    for (std::int64_t v : cases)
        EXPECT_EQ(trace::zigzagDecode(trace::zigzagEncode(v)), v) << v;
}

// ---------------------------------------------------------------
// Record stream round-trip
// ---------------------------------------------------------------

TEST(TraceFormatTest, RecordsRoundTripAcrossKindsAndDeltas)
{
    TempFile tmp("roundtrip");

    // Every kind, with hostile deltas: backward jumps, far-apart
    // memory addresses, a PC that wraps the address-space midpoint.
    std::vector<trace::TraceRecord> recs;
    auto add = [&](Addr pc, trace::RecordKind kind, bool taken,
                   Addr target, Addr mem) {
        trace::TraceRecord r;
        r.pc = pc;
        r.kind = kind;
        r.taken = taken;
        r.target = target;
        r.memAddr = mem;
        recs.push_back(r);
    };
    add(0x1000, trace::RecordKind::Other, false, invalidAddr,
        invalidAddr);
    add(0x1008, trace::RecordKind::CondBranch, true, 0x40, invalidAddr);
    add(0x40, trace::RecordKind::CondBranch, false, 0x8000'0000'0000,
        invalidAddr);
    add(0x48, trace::RecordKind::Load, false, invalidAddr, 0x10);
    add(0x50, trace::RecordKind::Store, false, invalidAddr,
        0x7fff'ffff'f000);
    add(0x58, trace::RecordKind::Call, true, 0x2000, invalidAddr);
    add(0x2000, trace::RecordKind::Return, true, 0x60, invalidAddr);
    add(0x60, trace::RecordKind::IndirectJump, true, 0x9000,
        invalidAddr);
    add(0x9000, trace::RecordKind::IndirectCall, true, 0x1000,
        invalidAddr);
    add(0x1000, trace::RecordKind::UncondDirect, true, 0x1010,
        invalidAddr);
    add(0x1010, trace::RecordKind::Load, false, invalidAddr, 0x8);
    add(0x1018, trace::RecordKind::Halt, false, invalidAddr,
        invalidAddr);
    // Push past one chunk boundary so chunk-reset deltas are covered.
    for (std::uint64_t i = 0; i < 2 * trace::recordsPerChunk; ++i)
        add(0x4000 + i * 8, trace::RecordKind::Other, false,
            invalidAddr, invalidAddr);

    trace::TraceMeta meta = recordsOnlyMeta();
    {
        trace::TraceWriter w(tmp.path(), meta);
        ASSERT_TRUE(w.ok()) << w.error();
        for (const auto &r : recs)
            w.append(r);
        ASSERT_TRUE(w.finalize()) << w.error();
        EXPECT_EQ(w.recordCount(), recs.size());
    }

    std::string err;
    auto file = trace::TraceFile::open(tmp.path(), err);
    ASSERT_TRUE(file) << err;
    EXPECT_EQ(file->meta().recordCount, recs.size());
    EXPECT_EQ(file->meta().name, "synthetic");
    EXPECT_EQ(file->meta().dataSeed, 7u);

    trace::TraceReader rd = file->records();
    trace::TraceRecord got;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(rd.next(got)) << "record " << i << ": "
                                  << rd.error();
        EXPECT_EQ(got.pc, recs[i].pc) << i;
        EXPECT_EQ(got.kind, recs[i].kind) << i;
        EXPECT_EQ(got.taken, recs[i].taken) << i;
        EXPECT_EQ(got.target, recs[i].target) << i;
        EXPECT_EQ(got.memAddr, recs[i].memAddr) << i;
    }
    EXPECT_FALSE(rd.next(got));
    EXPECT_TRUE(rd.ok()) << rd.error();

    // A fresh cursor restarts the stream from record zero.
    trace::TraceReader again = file->records();
    ASSERT_TRUE(again.next(got));
    EXPECT_EQ(got.pc, recs[0].pc);
}

TEST(TraceFormatTest, FooterHashIsStable)
{
    // The footer holds FNV-1a over every chunk payload, started at
    // 1469598103934665603 (the FNV offset basis without its last
    // digit). Traces already on disk carry that value, so this
    // reference loop, not the writer's, decides what it must be.
    TempFile tmp("footer");
    {
        trace::TraceWriter w(tmp.path(), recordsOnlyMeta());
        trace::TraceRecord r;
        r.pc = 0x1000;
        r.kind = trace::RecordKind::Load;
        for (std::uint64_t i = 0; i < trace::recordsPerChunk + 10; ++i) {
            r.memAddr = 0x200000 + (i * 40) % 4096;
            w.append(r);
            r.pc += 8;
        }
        ASSERT_TRUE(w.finalize()) << w.error();
    }
    const std::vector<std::uint8_t> bytes = readAll(tmp.path());
    std::uint64_t hash = 1469598103934665603ull;
    std::uint64_t stored = 0;
    unsigned chunks = 0;
    for (const Section &s : sectionsOf(bytes)) {
        if (s.tag == "RECS") {
            for (std::size_t c = s.body; c < s.body + s.size; ++chunks) {
                const std::size_t payload = c + 8;
                c = payload + leAt(bytes, c, 4);
                for (std::size_t i = payload; i < c; ++i) {
                    hash ^= bytes[i];
                    hash *= 1099511628211ull;
                }
            }
        } else if (s.tag == "ENDS") {
            EXPECT_EQ(leAt(bytes, s.body, 8), trace::recordsPerChunk + 10);
            stored = leAt(bytes, s.body + 8, 8);
        }
    }
    EXPECT_EQ(chunks, 2u);
    EXPECT_EQ(stored, hash);
    std::string err;
    EXPECT_TRUE(trace::TraceFile::open(tmp.path(), err)) << err;
}

// ---------------------------------------------------------------
// Structural rejection
// ---------------------------------------------------------------

TEST(TraceFormatTest, RejectsCorruptHeaderAndTruncation)
{
    TempFile tmp("reject");
    trace::TraceMeta meta = recordsOnlyMeta();
    {
        trace::TraceWriter w(tmp.path(), meta);
        trace::TraceRecord r;
        r.pc = 0x1000;
        r.kind = trace::RecordKind::Other;
        for (int i = 0; i < 100; ++i) {
            w.append(r);
            r.pc += 8;
        }
        ASSERT_TRUE(w.finalize()) << w.error();
    }
    const std::vector<std::uint8_t> good = readAll(tmp.path());
    ASSERT_GT(good.size(), 64u);
    std::string err;

    // Pristine file opens.
    ASSERT_TRUE(trace::TraceFile::open(tmp.path(), err)) << err;

    // Bad magic.
    {
        std::vector<std::uint8_t> bad = good;
        bad[0] ^= 0xff;
        writeAll(tmp.path(), bad);
        err.clear();
        EXPECT_FALSE(trace::TraceFile::open(tmp.path(), err));
        EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
    }

    // Unsupported format version (bytes 4..7).
    {
        std::vector<std::uint8_t> bad = good;
        bad[4] = 0x63;
        writeAll(tmp.path(), bad);
        err.clear();
        EXPECT_FALSE(trace::TraceFile::open(tmp.path(), err));
        EXPECT_NE(err.find("version"), std::string::npos) << err;
    }

    // Truncation anywhere in the tail: dropped footer, dropped chunk
    // bytes, dropped section header.
    for (std::size_t keep :
         {good.size() - 1, good.size() - 16, good.size() / 2, 40ul}) {
        std::vector<std::uint8_t> bad(good.begin(),
                                      good.begin() +
                                          static_cast<long>(keep));
        writeAll(tmp.path(), bad);
        err.clear();
        EXPECT_FALSE(trace::TraceFile::open(tmp.path(), err))
            << "kept " << keep << " bytes";
        EXPECT_FALSE(err.empty());
    }

    // A flipped byte inside the record payload breaks the FNV.
    {
        std::vector<std::uint8_t> bad = good;
        bad[bad.size() - 24] ^= 0x01;
        writeAll(tmp.path(), bad);
        err.clear();
        EXPECT_FALSE(trace::TraceFile::open(tmp.path(), err));
        EXPECT_FALSE(err.empty());
    }

    // An unfinalized writer (no footer, zero header count with a live
    // stream) must not be readable.
    {
        TempFile dead("unfinalized");
        trace::TraceWriter w(dead.path(), meta);
        trace::TraceRecord r;
        r.pc = 0x1000;
        r.kind = trace::RecordKind::Other;
        w.append(r);
        // No finalize(); stream out what's buffered.
        err.clear();
        EXPECT_FALSE(trace::TraceFile::open(dead.path(), err));
    }
}

// ---------------------------------------------------------------
// Fidelity and replay determinism
// ---------------------------------------------------------------

namespace
{

/** A small emitted workload trace shared by the heavier tests. */
struct EmittedTrace
{
    TempFile tmp{"emitted"};
    sim::Workload wl;
    std::uint64_t records = 0;

    explicit EmittedTrace(const std::string &workload = "vpr",
                          std::uint64_t insts = 6'000,
                          std::uint64_t warmup = 1'000,
                          std::uint64_t seed = 1)
    {
        sim::RunOptions opts;
        opts.maxMainInstructions = insts;
        opts.warmupInstructions = warmup;
        wl = sim::buildBenchWorkload(workload, seed, opts);
        std::string err;
        auto res = trace::emitWorkloadTrace(wl, seed, insts + warmup,
                                            tmp.path(), err);
        EXPECT_TRUE(res) << err;
        if (res)
            records = res->records;
    }
};

/** Every predictor's replay of file, as a digest document. */
std::string
replayDigestText(const trace::TraceFile &file)
{
    std::vector<std::pair<std::string, trace::ReplayStats>> rows;
    for (const std::string &name : branch::predictorClientNames()) {
        auto client = branch::makePredictorClient(name);
        trace::TraceReader rd = file.records();
        rows.emplace_back(name, trace::replayRecords(rd, *client));
        EXPECT_TRUE(rd.ok()) << name << ": " << rd.error();
    }
    return check::formatDigest(trace::replayDigest(file.meta(), rows));
}

} // namespace

TEST(TraceFormatTest, RefusalsNameTheirCause)
{
    // Each case is a corrupted copy of a small emitted trace, and
    // TraceFile::open must refuse it with the message naming why.
    EmittedTrace t("vpr", 2'000, 500);
    const std::vector<std::uint8_t> good = readAll(t.tmp.path());
    std::size_t recs = 0, ends = 0;  // section payload offsets
    for (const Section &sec : sectionsOf(good)) {
        if (sec.tag == "RECS")
            recs = sec.body;
        else if (sec.tag == "ENDS")
            ends = sec.body;
    }
    ASSERT_NE(recs, 0u);
    ASSERT_NE(ends, 0u);
    auto setLe = [](std::vector<std::uint8_t> &bytes, std::size_t off,
                    std::uint64_t v, int n) {
        for (int i = 0; i < n; ++i)
            bytes.at(off + i) = static_cast<std::uint8_t>(v >> (8 * i));
    };
    auto cut = [&](std::size_t keep) {
        return std::vector<std::uint8_t>(
            good.begin(), good.begin() + static_cast<long>(keep));
    };

    std::vector<std::uint8_t> flags = good;
    flags[8] = 1;  // u64 flags at 8
    std::vector<std::uint8_t> count = good;
    setLe(count, 16, t.records + 1, 8);  // header recordCount
    // A footer of 8 bytes holds the count but not the hash.
    std::vector<std::uint8_t> short_footer = cut(good.size() - 8);
    setLe(short_footer, ends - 8, 8, 8);
    // The chunk claims a byte more than its section holds.
    std::vector<std::uint8_t> chunk = good;
    setLe(chunk, recs, leAt(good, recs, 4) + 1, 4);
    std::vector<std::uint8_t> hash = good;
    hash[recs + 8] ^= 0x01;  // first payload byte

    const struct
    {
        std::vector<std::uint8_t> bytes;
        std::string message;
    } cases[] = {
        {cut(headerBytes(good) - 1), "has a truncated header"},
        {flags, "sets reserved header flags"},
        {cut(ends - 12), "has no footer"},
        {short_footer, "has a truncated footer"},
        {count, "header/footer record counts disagree (" +
                    std::to_string(t.records + 1) + " vs " +
                    std::to_string(t.records) + ")"},
        {chunk, "has a truncated chunk"},
        {hash, "record stream fails its integrity check"},
    };
    TempFile tmp("refusal");
    for (const auto &c : cases) {
        writeAll(tmp.path(), c.bytes);
        std::string err;
        EXPECT_FALSE(trace::TraceFile::open(tmp.path(), err)) << c.message;
        EXPECT_NE(err.find(c.message), std::string::npos)
            << "expected '" << c.message << "', got: " << err;
    }
}

class TraceFrontendFidelity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceFrontendFidelity, EmittedTraceMatchesFunctionalReExecution)
{
    EmittedTrace t(GetParam());
    ASSERT_GT(t.records, 0u);
    // The file holds the records and nothing else: the workload is
    // rebuilt from the name, scale and seed in its header.
    EXPECT_EQ(sectionTags(readAll(t.tmp.path())),
              (std::vector<std::string>{"RECS", "ENDS"}));
    std::string err;
    auto file = trace::TraceFile::open(t.tmp.path(), err);
    ASSERT_TRUE(file) << err;
    EXPECT_EQ(file->meta().name, GetParam());
    const sim::Workload wl = workloadOf(file->meta());
    auto checked = trace::verifyTraceFidelity(t.tmp.path(), wl, err);
    ASSERT_TRUE(checked) << err;
    EXPECT_EQ(*checked, t.records);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TraceFrontendFidelity,
    ::testing::ValuesIn(workloads::allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(TraceFrontendTest, EmittedTraceMatchesFunctionalReExecution)
{
    // Another seed and scale than the per-workload cases: the header
    // carries both, and the workload rebuilt from it must be the one
    // the trace was emitted from.
    EmittedTrace t("vpr", 3'000, 500, 7);
    ASSERT_GT(t.records, 0u);
    std::string err;
    auto file = trace::TraceFile::open(t.tmp.path(), err);
    ASSERT_TRUE(file) << err;
    EXPECT_EQ(file->meta().dataSeed, 7u);
    EXPECT_EQ(file->meta().scale, 7'000u);
    auto checked = trace::verifyTraceFidelity(
        t.tmp.path(), workloadOf(file->meta()), err);
    ASSERT_TRUE(checked) << err;
    EXPECT_EQ(*checked, t.records);
}

TEST(TraceFrontendTest, LoadedWorkloadReproducesDirectExecution)
{
    // The workload loaded from a trace's header (its name, scale and
    // seed) is the emitted one: same code, entry, slices and memory
    // image, and a counter-exact timing run.
    const std::uint64_t insts = 6'000, warmup = 1'000;
    EmittedTrace t("vpr", insts, warmup);
    std::string err;
    auto file = trace::TraceFile::open(t.tmp.path(), err);
    ASSERT_TRUE(file) << err;
    const sim::Workload loaded = workloadOf(file->meta());
    EXPECT_EQ(loaded.name, t.wl.name);
    EXPECT_EQ(loaded.entry, t.wl.entry);
    EXPECT_EQ(loaded.entry, file->meta().entryPc);
    EXPECT_EQ(loaded.slices.size(), t.wl.slices.size());
    EXPECT_EQ(arch::fingerprintProgram(loaded.program),
              file->meta().programFingerprint);
    arch::MemoryImage direct_mem, loaded_mem;
    t.wl.initMemory(direct_mem);
    loaded.initMemory(loaded_mem);
    EXPECT_EQ(loaded_mem.contentHash(), direct_mem.contentHash());

    sim::RunOptions opts;
    opts.maxMainInstructions = insts;
    opts.warmupInstructions = warmup;
    opts.check = true;

    sim::Simulator direct(sim::MachineConfig::fourWide());
    sim::Simulator viaTrace(sim::MachineConfig::fourWide());
    const auto a =
        sim::digestSection("slices", direct.run(t.wl, opts, true));
    const auto b =
        sim::digestSection("slices", viaTrace.run(loaded, opts, true));
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.ratios, b.ratios);
}

TEST(TraceFrontendTest, FidelityRefusesAnotherWorkload)
{
    EmittedTrace t;
    std::string err;
    auto file = trace::TraceFile::open(t.tmp.path(), err);
    ASSERT_TRUE(file) << err;
    const trace::TraceMeta &meta = file->meta();

    trace::TraceMeta other = meta;
    other.name = "gzip";
    EXPECT_FALSE(
        trace::verifyTraceFidelity(t.tmp.path(), workloadOf(other), err));
    EXPECT_NE(err.find("differs in its name"), std::string::npos) << err;

    other = meta;
    other.scale *= 2;
    EXPECT_FALSE(
        trace::verifyTraceFidelity(t.tmp.path(), workloadOf(other), err));
    EXPECT_NE(err.find("differs in its scale"), std::string::npos) << err;

    // Same name and scale, other code: one more (unreachable) section.
    sim::Workload wl = workloadOf(meta);
    isa::CodeSection extra;
    extra.base = 0x4000;
    extra.code.resize(1);
    wl.program.addSection(std::move(extra));
    EXPECT_FALSE(trace::verifyTraceFidelity(t.tmp.path(), wl, err));
    EXPECT_NE(err.find("program fingerprint"), std::string::npos) << err;
}

TEST(TraceFrontendTest, LoadRejectsRecordsOnlyTraces)
{
    // A trace written record by record rather than emitted from a
    // workload names no program: its header's fingerprint is 0. Even
    // under a real workload's name and scale, and holding that
    // workload's own records, it cannot be checked against the
    // workload, since nothing in the file vouches for the code.
    EmittedTrace t;
    std::string err;
    auto file = trace::TraceFile::open(t.tmp.path(), err);
    ASSERT_TRUE(file) << err;
    trace::TraceMeta meta = file->meta();
    meta.programFingerprint = 0;

    TempFile tmp("records_only");
    {
        trace::TraceWriter w(tmp.path(), meta);
        trace::TraceReader rd = file->records();
        trace::TraceRecord r;
        while (rd.next(r))
            w.append(r);
        ASSERT_TRUE(rd.ok()) << rd.error();
        ASSERT_TRUE(w.finalize()) << w.error();
    }
    auto copy = trace::TraceFile::open(tmp.path(), err);
    ASSERT_TRUE(copy) << err;
    EXPECT_EQ(copy->meta().recordCount, t.records);

    EXPECT_FALSE(
        trace::verifyTraceFidelity(tmp.path(), workloadOf(meta), err));
    EXPECT_NE(err.find("program fingerprint"), std::string::npos) << err;
}

TEST(TraceFormatTest, ReaderSkipsUnknownSections)
{
    // Older writers put the program, slices and memory image in
    // sections ahead of RECS. The reader skips tags it does not know,
    // so such a file replays exactly like the records-only one.
    EmittedTrace plain;
    const std::vector<std::uint8_t> bytes = readAll(plain.tmp.path());

    // A "MEMI" section as those writers laid it out: one page.
    std::vector<std::uint8_t> section = {'M', 'E', 'M', 'I'};
    putLe(section, 8 + 8 + 4096, 8);  // payload size
    putLe(section, 1, 8);             // pages
    putLe(section, 0x10, 8);          // page number
    for (int i = 0; i < 4096; ++i)
        section.push_back(static_cast<std::uint8_t>(i * 7));

    std::vector<std::uint8_t> padded = bytes;
    padded.insert(padded.begin() + static_cast<long>(headerBytes(bytes)),
                  section.begin(), section.end());
    TempFile extra("extra_section");
    writeAll(extra.path(), padded);
    ASSERT_EQ(sectionTags(padded),
              (std::vector<std::string>{"MEMI", "RECS", "ENDS"}));

    std::string err;
    auto a = trace::TraceFile::open(plain.tmp.path(), err);
    ASSERT_TRUE(a) << err;
    auto b = trace::TraceFile::open(extra.path(), err);
    ASSERT_TRUE(b) << err;
    EXPECT_EQ(b->meta().recordCount, a->meta().recordCount);
    EXPECT_EQ(b->meta().programFingerprint, a->meta().programFingerprint);

    trace::TraceReader ra = a->records();
    trace::TraceReader rb = b->records();
    trace::TraceRecord x, y;
    while (ra.next(x)) {
        ASSERT_TRUE(rb.next(y)) << rb.error();
        ASSERT_EQ(x, y) << "record " << ra.position() - 1;
    }
    EXPECT_FALSE(rb.next(y));
    EXPECT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra.position(), plain.records);

    EXPECT_EQ(replayDigestText(*b), replayDigestText(*a));
}

TEST(TraceFrontendTest, ReplayIsBitIdenticalAcrossRuns)
{
    EmittedTrace t;
    std::string err;
    auto file = trace::TraceFile::open(t.tmp.path(), err);
    ASSERT_TRUE(file) << err;

    for (const std::string &name : branch::predictorClientNames()) {
        auto c1 = branch::makePredictorClient(name);
        auto c2 = branch::makePredictorClient(name);
        ASSERT_TRUE(c1 && c2) << name;
        trace::TraceReader r1 = file->records();
        trace::TraceReader r2 = file->records();
        trace::ReplayStats s1 = trace::replayRecords(r1, *c1);
        trace::ReplayStats s2 = trace::replayRecords(r2, *c2);
        ASSERT_TRUE(r1.ok() && r2.ok()) << name;
        // The digest section folds in every counter and client stat;
        // equal sections = bit-identical replay.
        const auto sec1 = trace::replaySection(name, s1);
        const auto sec2 = trace::replaySection(name, s2);
        EXPECT_EQ(sec1.counters, sec2.counters) << name;
        EXPECT_EQ(sec1.ratios, sec2.ratios) << name;
        EXPECT_GT(s1.condBranches, 0u) << name;
    }
}
