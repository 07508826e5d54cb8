/**
 * @file
 * The retirement-time architectural checker and the golden-digest
 * machinery. Unit tests drive RetireChecker with a record stream
 * produced by an independent architectural walk, then corrupt single
 * records to prove each divergence kind is caught at exactly the
 * corrupted instruction; integration tests run real workloads under
 * sim::Simulator with checking on, and prove a real divergence (a
 * checker started on a corrupted copy of the core's image) is fatal
 * with a report; digest tests cover the format round-trip, diff
 * tolerance rules, and the lint.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <utility>

#include "arch/exec.hh"
#include "check/checker.hh"
#include "check/digest.hh"
#include "common/failure.hh"
#include "core/smt_core.hh"
#include "isa/assembler.hh"
#include "isa/program.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;
using check::DivergenceKind;
using check::RetireRecord;

namespace
{

constexpr Addr codeBase = 0x10000;
constexpr Addr dataBase = 0x100000;

/**
 * A little program exercising every checked fact: ALU writebacks, a
 * loop with a conditional branch taken and finally not-taken, loads,
 * and stores.
 */
isa::Program
sumProgram()
{
    isa::Assembler as(codeBase);
    as.ldi(1, 0);    // sum
    as.ldi(2, 8);    // i
    as.ldi64(4, dataBase);
    as.label("loop");
    as.add(1, 1, 2);
    as.stq(1, 4, 0);
    as.subi(2, 2, 1);
    as.bgt(2, "loop");
    as.ldq(5, 4, 0);
    as.halt();
    isa::Program prog;
    prog.addSection(as.finish());
    return prog;
}

/**
 * Walk the program architecturally (an independent interpreter loop,
 * not the checker's) and emit the RetireRecord stream a correct core
 * would produce.
 */
std::vector<RetireRecord>
retireStream(const isa::Program &prog, Addr entry,
             std::size_t max_insts = 100000)
{
    arch::RegFile regs;
    arch::MemoryImage mem;
    std::vector<RetireRecord> out;
    Addr pc = entry;
    for (std::size_t n = 0; n < max_insts; ++n) {
        const isa::Instruction *si = prog.fetch(pc);
        if (!si)
            ADD_FAILURE() << "walk ran off the program at 0x" << std::hex
                          << pc;
        auto fx = arch::execute(*si, pc, regs, mem, true);
        RetireRecord rec;
        rec.seq = n + 1;
        rec.pc = pc;
        rec.wroteReg = fx.wroteReg;
        rec.reg = si->rc;
        rec.value = fx.value;
        rec.isStore = si->isStore();
        rec.storeAddr = fx.memAddr;
        rec.storeData = fx.value;
        rec.isCondBranch = si->isCondBranch();
        rec.taken = fx.taken;
        rec.nextPc = fx.nextPc;
        out.push_back(rec);
        if (fx.halted)
            break;
        pc = fx.nextPc;
    }
    return out;
}

check::RetireChecker
makeChecker(const isa::Program &prog,
            check::CheckerConfig cfg = {})
{
    cfg.panicOnDivergence = false;  // latch: the tests read divergence()
    return check::RetireChecker(prog, codeBase, arch::RegFile{},
                                arch::MemoryImage{}, cfg);
}

/** Feed records until the checker latches; return how many it took. */
std::size_t
feed(check::RetireChecker &ck, const std::vector<RetireRecord> &recs)
{
    std::size_t fed = 0;
    for (const RetireRecord &r : recs) {
        ck.onRetire(r);
        ++fed;
        if (ck.diverged())
            break;
    }
    return fed;
}

} // namespace

// ---------------------------------------------------------------------
// RetireChecker unit tests.
// ---------------------------------------------------------------------

TEST(RetireChecker, CleanStreamMatches)
{
    isa::Program prog = sumProgram();
    auto recs = retireStream(prog, codeBase);
    ASSERT_GT(recs.size(), 10u);

    auto ck = makeChecker(prog);
    feed(ck, recs);
    EXPECT_FALSE(ck.diverged());
    EXPECT_EQ(ck.checkedCount(), recs.size());
    EXPECT_TRUE(ck.report().empty());
    // sum = 8+7+...+1 landed in memory and was loaded back into r5.
    EXPECT_EQ(ck.refRegs().read(5), 36u);
}

TEST(RetireChecker, CorruptRegValueCaughtAtThatInstruction)
{
    isa::Program prog = sumProgram();
    auto recs = retireStream(prog, codeBase);
    // Corrupt one ALU writeback in the middle of the loop.
    std::size_t victim = 0;
    for (std::size_t i = 6; i < recs.size(); ++i) {
        if (recs[i].wroteReg && !recs[i].isStore) {
            victim = i;
            break;
        }
    }
    ASSERT_GT(victim, 0u);
    recs[victim].value ^= 0x40;

    auto ck = makeChecker(prog);
    std::size_t fed = feed(ck, recs);
    ASSERT_TRUE(ck.diverged());
    EXPECT_EQ(ck.divergence().kind, DivergenceKind::RegWriteback);
    // Latched at exactly the corrupted instruction, not earlier/later.
    EXPECT_EQ(fed, victim + 1);
    EXPECT_EQ(ck.divergence().record.seq, recs[victim].seq);
    EXPECT_EQ(ck.divergence().record.index, victim + 1);
    EXPECT_EQ(ck.divergence().actual ^ ck.divergence().expected, 0x40u);

    // Once latched, further retirements are ignored.
    ck.onRetire(recs.back());
    EXPECT_EQ(ck.checkedCount(), victim + 1);
}

TEST(RetireChecker, CorruptStoreDataAndAddrCaught)
{
    isa::Program prog = sumProgram();
    auto clean = retireStream(prog, codeBase);
    std::size_t victim = 0;
    for (std::size_t i = 0; i < clean.size(); ++i)
        if (clean[i].isStore) {
            victim = i;
            break;
        }
    ASSERT_TRUE(clean[victim].isStore);

    {
        auto recs = clean;
        recs[victim].storeData += 1;
        auto ck = makeChecker(prog);
        feed(ck, recs);
        ASSERT_TRUE(ck.diverged());
        EXPECT_EQ(ck.divergence().kind, DivergenceKind::StoreData);
        EXPECT_EQ(ck.divergence().record.index, victim + 1);
    }
    {
        auto recs = clean;
        recs[victim].storeAddr += 8;
        auto ck = makeChecker(prog);
        feed(ck, recs);
        ASSERT_TRUE(ck.diverged());
        EXPECT_EQ(ck.divergence().kind, DivergenceKind::StoreAddr);
        EXPECT_EQ(ck.divergence().record.index, victim + 1);
    }
}

TEST(RetireChecker, CorruptBranchDirectionAndPcCaught)
{
    isa::Program prog = sumProgram();
    auto clean = retireStream(prog, codeBase);
    std::size_t branch = 0;
    for (std::size_t i = 0; i < clean.size(); ++i)
        if (clean[i].isCondBranch) {
            branch = i;
            break;
        }
    ASSERT_TRUE(clean[branch].isCondBranch);

    {
        auto recs = clean;
        recs[branch].taken = !recs[branch].taken;
        auto ck = makeChecker(prog);
        feed(ck, recs);
        ASSERT_TRUE(ck.diverged());
        EXPECT_EQ(ck.divergence().kind,
                  DivergenceKind::BranchDirection);
        EXPECT_EQ(ck.divergence().record.index, branch + 1);
    }
    {
        auto recs = clean;
        recs[branch].nextPc += isa::instBytes;
        auto ck = makeChecker(prog);
        feed(ck, recs);
        ASSERT_TRUE(ck.diverged());
        EXPECT_EQ(ck.divergence().kind, DivergenceKind::NextPc);
    }
    {
        // A wrong retired PC diverges immediately, before execution.
        auto recs = clean;
        recs[2].pc += isa::instBytes;
        auto ck = makeChecker(prog);
        feed(ck, recs);
        ASSERT_TRUE(ck.diverged());
        EXPECT_EQ(ck.divergence().kind, DivergenceKind::Pc);
        EXPECT_EQ(ck.divergence().record.index, 3u);
    }
}

TEST(RetireChecker, ReportNamesKindAndMarksDivergingInstruction)
{
    isa::Program prog = sumProgram();
    auto recs = retireStream(prog, codeBase);
    recs[5].value ^= 1;

    check::CheckerConfig cfg;
    cfg.historyDepth = 4;
    auto ck = makeChecker(prog, cfg);
    feed(ck, recs);
    ASSERT_TRUE(ck.diverged());

    std::string rep = ck.report();
    EXPECT_NE(rep.find("register-writeback"), std::string::npos);
    EXPECT_NE(rep.find("<== diverged"), std::string::npos);
    EXPECT_NE(rep.find("last 4 retired"), std::string::npos) << rep;
}

// ---------------------------------------------------------------------
// Simulator integration: real workloads under co-simulation.
// ---------------------------------------------------------------------

namespace
{

sim::RunOptions
checkedOpts(std::uint64_t insts, std::uint64_t warmup)
{
    sim::RunOptions o;
    o.maxMainInstructions = insts;
    o.warmupInstructions = warmup;
    o.check = true;
    return o;
}

} // namespace

TEST(CheckIntegration, VprCleanUnderCheckerBothConfigs)
{
    workloads::Params p;
    p.scale = 40000;
    sim::Workload wl = workloads::buildWorkload("vpr", p);
    sim::Simulator machine(sim::MachineConfig::fourWide());

    auto opts = checkedOpts(10000, 2000);
    // A divergence would SS_FATAL inside run(); surviving to the
    // assertions below means every retirement matched.
    auto base = machine.runBaseline(wl, opts);
    EXPECT_GE(base.checkedRetired, 10000u);  // warm-up is checked too

    auto slices = machine.run(wl, opts, true);
    EXPECT_GE(slices.checkedRetired, 10000u);
}

TEST(CheckIntegration, DivergenceIsFatalWithReport)
{
    workloads::Params p;
    p.scale = 20000;
    const sim::Workload wl = workloads::buildWorkload("vpr", p);
    ASSERT_TRUE(wl.initMemory);
    arch::MemoryImage mem;
    wl.initMemory(mem);
    // The checker starts on a copy of the core's image with a bit
    // flipped in every word, so the two disagree at the first load.
    arch::MemoryImage flipped = mem.clone();
    for (Addr page : flipped.pageNumbers()) {
        const Addr base = page << arch::MemoryImage::pageShift;
        for (Addr a = base; a < base + arch::MemoryImage::pageSize;
             a += 8)
            flipped.writeQ(a, flipped.readQ(a) ^ 0x1);
    }
    check::RetireChecker checker(wl.program, wl.entry, arch::RegFile{},
                                 std::move(flipped));
    core::SmtCore machine(sim::MachineConfig::fourWide(), wl.program,
                          mem);
    core::RunOptions opts;
    opts.maxMainInstructions = 5000;
    opts.checker = &checker;

    ScopedThrowErrors throwing;
    try {
        machine.run(wl.entry, opts);
        FAIL() << "a divergent run returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Fatal);
        const std::string what = e.what();
        EXPECT_NE(what.find("architectural divergence"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("first divergence"), std::string::npos)
            << what;
    }
}

TEST(CheckIntegration, UncheckedRunReportsNothing)
{
    workloads::Params p;
    p.scale = 20000;
    sim::Workload wl = workloads::buildWorkload("vpr", p);
    sim::Simulator machine(sim::MachineConfig::fourWide());

    sim::RunOptions opts;
    opts.maxMainInstructions = 5000;
    auto res = machine.runBaseline(wl, opts);
    EXPECT_EQ(res.checkedRetired, 0u);
}

// ---------------------------------------------------------------------
// Golden digest format, diff, and lint.
// ---------------------------------------------------------------------

namespace
{

check::Digest
sampleDigest()
{
    check::Digest d;
    d.workload = "vpr";
    d.insts = 20000;
    d.warmup = 5000;
    d.seed = 1;
    d.width = 4;
    d.threads = 4;
    check::Digest::Section base;
    base.config = "baseline";
    base.counters = {{"cycles", 17865},
                     {"main_retired", 20000},
                     {"detail.forks", 0}};
    base.ratios = {{"ipc", 20000.0 / 17865.0}};
    check::Digest::Section slices = base;
    slices.config = "slices";
    slices.counters["cycles"] = 16000;
    slices.ratios["ipc"] = 1.25;
    d.sections = {base, slices};
    return d;
}

check::Digest
parsed(const std::string &text)
{
    std::istringstream is(text);
    std::string err;
    auto d = check::parseDigest(is, err);
    EXPECT_TRUE(d) << err;
    return d ? *d : check::Digest{};
}

} // namespace

TEST(Digest, FormatParseRoundTrip)
{
    check::Digest d = sampleDigest();
    check::Digest back = parsed(check::formatDigest(d));

    EXPECT_EQ(back.schemaVersion, check::digestSchemaVersion);
    EXPECT_EQ(back.workload, "vpr");
    EXPECT_EQ(back.insts, 20000u);
    ASSERT_EQ(back.sections.size(), 2u);
    EXPECT_TRUE(check::diffDigests(d, back).empty());
    EXPECT_TRUE(check::lintDigest(back).empty());
}

TEST(Digest, DiffCatchesCounterAndHeaderDrift)
{
    check::Digest golden = sampleDigest();
    check::Digest live = golden;
    live.sections[0].counters["cycles"] += 1;
    live.seed = 2;

    auto diffs = check::diffDigests(golden, live);
    ASSERT_EQ(diffs.size(), 2u);
    bool saw_cycles = false, saw_seed = false;
    for (const auto &m : diffs) {
        saw_cycles |= m.find("baseline.cycles") != std::string::npos;
        saw_seed |= m.find("seed") != std::string::npos;
    }
    EXPECT_TRUE(saw_cycles);
    EXPECT_TRUE(saw_seed);

    // Counters present only on one side fail in either direction.
    live = golden;
    live.sections[1].counters.erase("detail.forks");
    live.sections[1].counters["detail.new_thing"] = 7;
    diffs = check::diffDigests(golden, live);
    ASSERT_EQ(diffs.size(), 2u);
}

TEST(Digest, RatioToleranceIsRelative)
{
    check::Digest golden = sampleDigest();
    check::Digest live = golden;

    // A decimal round-trip wobble passes...
    live.sections[0].ratios["ipc"] *= 1.0 + 1e-12;
    EXPECT_TRUE(check::diffDigests(golden, live).empty());

    // ...a real change does not.
    live.sections[0].ratios["ipc"] *= 1.0 + 1e-3;
    auto diffs = check::diffDigests(golden, live);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_NE(diffs[0].find("baseline.ipc"), std::string::npos);
}

TEST(Digest, LintFlagsStructuralProblems)
{
    // Healthy digest lints clean.
    EXPECT_TRUE(check::lintDigest(sampleDigest()).empty());

    check::Digest d = sampleDigest();
    d.schemaVersion = check::digestSchemaVersion + 1;
    EXPECT_FALSE(check::lintDigest(d).empty());

    d = sampleDigest();
    d.sections.pop_back();  // no 'slices' section
    EXPECT_FALSE(check::lintDigest(d).empty());

    d = sampleDigest();
    d.sections[0].counters["cycles"] = 0;
    EXPECT_FALSE(check::lintDigest(d).empty());

    d = sampleDigest();
    d.sections[1].ratios["ipc"] =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(check::lintDigest(d).empty());

    d = sampleDigest();
    d.sections[1].ratios["ipc"] = -0.5;
    EXPECT_FALSE(check::lintDigest(d).empty());

    // Only the two Table 1 machines can be built from a digest.
    d = sampleDigest();
    d.width = 5;
    EXPECT_FALSE(check::lintDigest(d).empty());

    // More contexts than a core can have (see core::maxThreads).
    d = sampleDigest();
    d.threads = 65;
    EXPECT_FALSE(check::lintDigest(d).empty());
}

TEST(Digest, ParserRejectsMalformedInput)
{
    auto rejects = [](const std::string &text) {
        std::istringstream is(text);
        std::string err;
        auto d = check::parseDigest(is, err);
        EXPECT_FALSE(d) << "accepted: " << text;
        EXPECT_NE(err.find("line"), std::string::npos);
    };
    rejects("bogus_directive 1\n");
    rejects("schema_version not_a_number\n");
    rejects("counter cycles 5\n");           // before any config
    rejects("config a\ncounter cycles -3\n");
    rejects("config a\ncounter cycles 3 extra\n");
    rejects("config a\ncounter cycles 1\ncounter cycles 2\n");
    rejects("config a\nratio ipc abc\n");
}
