/**
 * @file
 * Checkpoint tests: the versioned on-disk format round-trips the full
 * architectural state (registers, memory, the three warmth logs),
 * keeps its bytes stable across releases, rejects corrupt or
 * mismatched inputs with diagnostics instead of garbage state, and —
 * the property everything rests on — a run restored from a checkpoint
 * produces byte-identical results to one that never stopped, for both
 * the baseline and slice configurations.
 */

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "arch/checkpoint.hh"
#include "arch/fastfwd.hh"
#include "common/failure.hh"
#include "sim/result_json.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

workloads::Params
smallParams()
{
    workloads::Params p;
    p.scale = 400'000;
    return p;
}

/** A fast-forwarded engine with warm logs, ready to snapshot. */
arch::FastForward
advancedEngine(const sim::Workload &wl, std::uint64_t insts)
{
    arch::FastForward ff(wl.program);
    ff.reset(wl.entry);
    if (wl.initMemory)
        wl.initMemory(ff.mem());
    ff.advanceTo(insts);
    return ff;
}

/** Unique temp path; removed by the caller. */
std::string
tempPath(const std::string &tag)
{
    auto dir = std::filesystem::temp_directory_path();
    return (dir / ("ss_ckpt_test_" + tag + "_" +
                   std::to_string(::getpid()) + ".ckpt"))
        .string();
}

/** 64-bit FNV-1a of a byte string. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char b : bytes) {
        hash ^= b;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

class TempFile
{
  public:
    explicit TempFile(const std::string &tag) : path_(tempPath(tag)) {}
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

TEST(CheckpointTest, StreamRoundTripPreservesEverything)
{
    auto wl = workloads::buildWorkload("vpr", smallParams());
    arch::FastForward ff = advancedEngine(wl, 50'000);
    arch::Checkpoint before = ff.makeCheckpoint();
    ASSERT_FALSE(before.warmth.empty());
    ASSERT_FALSE(before.memWarmth.empty());

    std::stringstream ss;
    ASSERT_TRUE(arch::saveCheckpoint(before, ss));
    std::string error;
    auto after = arch::loadCheckpoint(ss, error);
    ASSERT_TRUE(after.has_value()) << error;

    EXPECT_EQ(after->version, arch::checkpointVersion);
    EXPECT_EQ(after->programFingerprint, before.programFingerprint);
    EXPECT_EQ(after->instCount, before.instCount);
    EXPECT_EQ(after->pc, before.pc);
    for (unsigned r = 0; r < isa::numRegs; ++r)
        ASSERT_EQ(after->regs.read(static_cast<RegIndex>(r)),
                  before.regs.read(static_cast<RegIndex>(r)));

    ASSERT_EQ(after->warmth.size(), before.warmth.size());
    for (std::size_t i = 0; i < before.warmth.size(); ++i) {
        EXPECT_EQ(after->warmth[i].pc, before.warmth[i].pc);
        EXPECT_EQ(after->warmth[i].target, before.warmth[i].target);
        EXPECT_EQ(after->warmth[i].kind, before.warmth[i].kind);
        EXPECT_EQ(after->warmth[i].taken, before.warmth[i].taken);
    }
    ASSERT_EQ(after->memWarmth.size(), before.memWarmth.size());
    for (std::size_t i = 0; i < before.memWarmth.size(); ++i) {
        EXPECT_EQ(after->memWarmth[i].addr, before.memWarmth[i].addr);
        EXPECT_EQ(after->memWarmth[i].isStore,
                  before.memWarmth[i].isStore);
    }
    EXPECT_EQ(after->mem.contentHash(), before.mem.contentHash());
}

TEST(CheckpointTest, RestoreResumesTheExactStream)
{
    // save at N, restore, run to M  ==  run straight to M.
    auto wl = workloads::buildWorkload("mcf", smallParams());
    arch::FastForward straight = advancedEngine(wl, 80'000);

    arch::FastForward ff = advancedEngine(wl, 30'000);
    std::stringstream ss;
    ASSERT_TRUE(arch::saveCheckpoint(ff.makeCheckpoint(), ss));
    std::string error;
    auto ckpt = arch::loadCheckpoint(ss, error);
    ASSERT_TRUE(ckpt.has_value()) << error;

    arch::FastForward resumed(wl.program);
    resumed.restore(std::move(*ckpt));
    EXPECT_EQ(resumed.executed(), 30'000u);
    resumed.advanceTo(80'000);

    EXPECT_EQ(resumed.executed(), straight.executed());
    EXPECT_EQ(resumed.pc(), straight.pc());
    EXPECT_EQ(resumed.mem().contentHash(), straight.mem().contentHash());
    auto a = resumed.warmth(), b = straight.warmth();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i].pc, b[i].pc);
}

TEST(CheckpointTest, RejectsBadMagic)
{
    std::stringstream ss("definitely not a checkpoint file");
    std::string error;
    EXPECT_FALSE(arch::loadCheckpoint(ss, error).has_value());
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(CheckpointTest, RejectsWrongVersion)
{
    auto wl = workloads::buildWorkload("vpr", smallParams());
    arch::FastForward ff = advancedEngine(wl, 1'000);
    arch::Checkpoint c = ff.makeCheckpoint();
    for (std::uint32_t v :
         {arch::checkpointVersion - 1, arch::checkpointVersion + 1}) {
        c.version = v;
        std::stringstream ss;
        ASSERT_TRUE(arch::saveCheckpoint(c, ss));
        std::string error;
        EXPECT_FALSE(arch::loadCheckpoint(ss, error).has_value()) << v;
        EXPECT_NE(error.find("version " + std::to_string(v)),
                  std::string::npos)
            << error;
    }
}

TEST(CheckpointTest, RejectsTruncation)
{
    auto wl = workloads::buildWorkload("vpr", smallParams());
    arch::FastForward ff = advancedEngine(wl, 10'000);
    const arch::Checkpoint c = ff.makeCheckpoint();
    std::stringstream ss;
    ASSERT_TRUE(arch::saveCheckpoint(c, ss));
    const std::string full = ss.str();

    // Cutting the stream anywhere must produce an error, not state.
    for (std::size_t cut : {std::size_t{4}, full.size() / 2,
                            full.size() - 1}) {
        std::stringstream trunc(full.substr(0, cut));
        std::string error;
        EXPECT_FALSE(arch::loadCheckpoint(trunc, error).has_value())
            << "cut at " << cut << " loaded anyway";
        EXPECT_FALSE(error.empty());
    }

    // A cut inside a section is reported as that section's.
    ASSERT_GT(c.warmth.size(), 2u);
    ASSERT_GT(c.memWarmth.size(), 2u);
    ASSERT_GT(c.instWarmth.size(), 2u);

    // Section offsets of the v3 layout: a 36-byte header, 8 bytes per
    // register, then each section's 8-byte count and its records
    // (branch 20 bytes, data 12, page 8 + 4096, instruction 8).
    const std::size_t regs = 36;
    const std::size_t branch = regs + 8 * isa::numRegs;
    const std::size_t data = branch + 8 + 20 * c.warmth.size();
    const std::size_t pages = data + 8 + 12 * c.memWarmth.size();
    const std::size_t inst = full.size() - 8 - 8 * c.instWarmth.size();
    ASSERT_GT(inst, pages + 8 + 8 + arch::MemoryImage::pageSize);

    const struct
    {
        std::size_t cut;
        const char *error;
    } cases[] = {
        {regs + 8 * 3 + 5, "truncated register file"},
        {branch + 4, "truncated warmth log"},
        {branch + 8 + 20 * (c.warmth.size() / 2) + 7,
         "truncated warmth log"},
        {data + 8 + 12 * (c.memWarmth.size() / 2) + 5,
         "truncated memory warmth log"},
        {data + 8 + 12 * c.memWarmth.size() - 1,
         "truncated memory warmth log"},
        {pages + 8 + 8 + 100, "truncated page data"},
        {inst + 3, "truncated instruction warmth log"},
        {inst + 8 + 8 * (c.instWarmth.size() / 2) + 3,
         "truncated instruction warmth log"},
    };
    for (const auto &tc : cases) {
        std::stringstream trunc(full.substr(0, tc.cut));
        std::string error;
        EXPECT_FALSE(arch::loadCheckpoint(trunc, error).has_value())
            << "cut at " << tc.cut << " loaded anyway";
        EXPECT_EQ(error, tc.error) << "cut at " << tc.cut;
    }
}

TEST(CheckpointTest, LoadConsumesExactlyTheCheckpoint)
{
    // Two checkpoints back to back on one stream: each load must stop
    // at its own last byte, so the second parses from where the first
    // ended and the stream is then exhausted.
    auto wl = workloads::buildWorkload("vpr", smallParams());
    arch::FastForward ff = advancedEngine(wl, 10'000);
    const arch::Checkpoint first = ff.makeCheckpoint();
    ff.advanceTo(20'000);
    const arch::Checkpoint second = ff.makeCheckpoint();
    std::stringstream ss;
    ASSERT_TRUE(arch::saveCheckpoint(first, ss));
    ASSERT_TRUE(arch::saveCheckpoint(second, ss));

    std::string error;
    auto a = arch::loadCheckpoint(ss, error);
    ASSERT_TRUE(a.has_value()) << error;
    auto b = arch::loadCheckpoint(ss, error);
    ASSERT_TRUE(b.has_value()) << error;
    EXPECT_EQ(a->instCount, 10'000u);
    EXPECT_EQ(b->instCount, 20'000u);
    EXPECT_EQ(b->instWarmth, second.instWarmth);
    EXPECT_EQ(ss.peek(), std::char_traits<char>::eof());
}

TEST(CheckpointTest, FormatIsStable)
{
    // The exact bytes of a checkpoint, pinned: a writer change that
    // moves a single byte of the v3 layout fails here rather than in a
    // restore against a file written by another build.
    auto wl = workloads::buildWorkload("vpr", smallParams());
    arch::FastForward ff = advancedEngine(wl, 10'000);
    std::stringstream ss;
    ASSERT_TRUE(arch::saveCheckpoint(ff.makeCheckpoint(), ss));
    const std::string bytes = ss.str();
    EXPECT_EQ(bytes.size(), 2'469'280u);
    EXPECT_EQ(fnv1a(bytes), 0x4bcff748b5d346efull);
}

TEST(CheckpointTest, RestoreIntoWrongProgramIsFatal)
{
    auto vpr = workloads::buildWorkload("vpr", smallParams());
    auto mcf = workloads::buildWorkload("mcf", smallParams());
    arch::FastForward ff = advancedEngine(vpr, 1'000);
    arch::Checkpoint c = ff.makeCheckpoint();

    arch::FastForward other(mcf.program);
    ScopedThrowErrors throwing;
    EXPECT_THROW(other.restore(std::move(c)), SimError);
}

TEST(CheckpointTest, MissingFileReportsError)
{
    std::string error;
    EXPECT_FALSE(
        arch::loadCheckpointFile("/nonexistent/nowhere.ckpt", error)
            .has_value());
    EXPECT_FALSE(error.empty());
}

// ---- end-to-end: checkpointed runs are byte-identical -------------

class CheckpointRunSuite : public ::testing::TestWithParam<bool>
{
};

TEST_P(CheckpointRunSuite, SaveRestoreRunMatchesUninterrupted)
{
    const bool with_slices = GetParam();
    auto wl = workloads::buildWorkload("vpr", smallParams());
    sim::Simulator machine(sim::MachineConfig::fourWide());

    sim::RunOptions opts;
    opts.fastForwardInstructions = 60'000;
    opts.sampleRegions = 2;
    opts.warmupInstructions = 5'000;
    opts.maxMainInstructions = 10'000;

    TempFile ckpt(with_slices ? "slices" : "baseline");
    sim::RunOptions save = opts;
    save.saveCheckpoint = ckpt.path();
    sim::RunResult saved = machine.run(wl, save, with_slices);
    ASSERT_TRUE(std::filesystem::exists(ckpt.path()));

    sim::RunOptions load = opts;
    load.restoreCheckpoint = ckpt.path();
    sim::RunResult restored = machine.run(wl, load, with_slices);

    // Byte-identical timing, not merely similar: the checkpoint must
    // reproduce the exact architectural state and warmth logs.
    EXPECT_EQ(restored.cycles, saved.cycles);
    EXPECT_EQ(restored.mainRetired, saved.mainRetired);
    EXPECT_EQ(restored.mainFetched, saved.mainFetched);
    EXPECT_EQ(restored.mispredictions, saved.mispredictions);
    EXPECT_EQ(restored.l1dMissesMain, saved.l1dMissesMain);
    EXPECT_EQ(restored.coveredMisses, saved.coveredMisses);
    EXPECT_EQ(restored.forks, saved.forks);
    EXPECT_EQ(restored.fastForwarded, saved.fastForwarded);
    EXPECT_EQ(restored.sampledRegions, saved.sampledRegions);

    // Every detail counter — the same set golden digests carry — must
    // match exactly; no subsystem may drift across a save/restore.
    auto saved_counters = saved.detail.counters();
    auto restored_counters = restored.detail.counters();
    ASSERT_EQ(saved_counters.size(), restored_counters.size());
    for (const auto &[name, stat] : saved_counters) {
        auto it = restored_counters.find(name);
        ASSERT_NE(it, restored_counters.end()) << name;
        EXPECT_EQ(it->second.value(), stat.value()) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(BaselineAndSlices, CheckpointRunSuite,
                         ::testing::Bool());

TEST(CheckpointTest, EntryCheckpointRunMatchesFullRun)
{
    // Forced down the sampled path at the entry (no fast-forward, one
    // region, a checkpoint saved), a run starts from the same state a
    // full run does, so every counter matches, checker on.
    auto wl = workloads::buildWorkload("vpr", smallParams());
    sim::Simulator machine(sim::MachineConfig::fourWide());
    sim::RunOptions full;
    full.warmupInstructions = 5'000;
    full.maxMainInstructions = 20'000;
    full.check = true;

    TempFile ckpt("entry");
    sim::RunOptions entry = full;
    entry.sampleRegions = 1;
    entry.saveCheckpoint = ckpt.path();
    ASSERT_TRUE(sim::Simulator::sampled(entry));

    for (bool with_slices : {false, true}) {
        SCOPED_TRACE(with_slices ? "sliced" : "baseline");
        const sim::RunResult a = machine.run(wl, full, with_slices);
        const sim::RunResult b = machine.run(wl, entry, with_slices);
        EXPECT_EQ(b.sampledRegions, 1u);
        EXPECT_EQ(b.fastForwarded, 0u);
        EXPECT_GE(a.checkedRetired, full.maxMainInstructions);
        EXPECT_EQ(b.checkedRetired, a.checkedRetired);
        EXPECT_EQ(sim::digestSection("", b).counters,
                  sim::digestSection("", a).counters);
    }
}

TEST(CheckpointTest, InstWarmthRoundTrips)
{
    // The v3 format carries the instruction-line warmth ring; a
    // restore must replay the exact sequence (the I-cache warm-up
    // depends on order for LRU state).
    auto wl = workloads::buildWorkload("vpr", smallParams());
    arch::FastForward ff = advancedEngine(wl, 50'000);
    arch::Checkpoint before = ff.makeCheckpoint();
    ASSERT_FALSE(before.instWarmth.empty());
    EXPECT_EQ(before.instWarmth, ff.instWarmth());

    std::stringstream ss;
    ASSERT_TRUE(arch::saveCheckpoint(before, ss));
    std::string error;
    auto after = arch::loadCheckpoint(ss, error);
    ASSERT_TRUE(after.has_value()) << error;
    EXPECT_EQ(after->instWarmth, before.instWarmth);

    // And a restored engine re-exposes it for region replay.
    arch::FastForward resumed(wl.program);
    resumed.restore(std::move(*after));
    EXPECT_EQ(resumed.instWarmth(), before.instWarmth);
}

// ---- --fastforward against a restored checkpoint's position --------

TEST(CheckpointTest, RestorePastFastForwardIsFatal)
{
    auto wl = workloads::buildWorkload("vpr", smallParams());
    sim::Simulator machine(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.warmupInstructions = 2'000;
    opts.maxMainInstructions = 5'000;

    TempFile ckpt("past");
    sim::RunOptions save = opts;
    save.fastForwardInstructions = 60'000;
    save.saveCheckpoint = ckpt.path();
    machine.run(wl, save, false);

    // Fast-forwarding to 30,000 cannot rewind a checkpoint taken at
    // 60,000: the run would silently measure the later region.
    sim::RunOptions load = opts;
    load.fastForwardInstructions = 30'000;
    load.restoreCheckpoint = ckpt.path();
    ScopedThrowErrors throwing;
    try {
        machine.run(wl, load, false);
        FAIL() << "a restore past --fastforward ran";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Fatal);
        const std::string what = e.what();
        EXPECT_NE(what.find("60000"), std::string::npos) << what;
        EXPECT_NE(what.find("30000"), std::string::npos) << what;
    }
}

TEST(CheckpointTest, ZeroFastForwardStartsAtTheCheckpoint)
{
    auto wl = workloads::buildWorkload("vpr", smallParams());
    sim::Simulator machine(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.warmupInstructions = 2'000;
    opts.maxMainInstructions = 5'000;

    TempFile ckpt("zero");
    sim::RunOptions save = opts;
    save.fastForwardInstructions = 60'000;
    save.saveCheckpoint = ckpt.path();
    machine.run(wl, save, false);

    sim::RunOptions load = opts;
    load.restoreCheckpoint = ckpt.path();
    sim::RunResult r = machine.run(wl, load, false);
    EXPECT_EQ(r.fastForwarded, 60'000u);
    EXPECT_EQ(r.outcome, sim::SimOutcome::Completed);
}
