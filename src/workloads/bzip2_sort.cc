/**
 * @file
 * bzip2: the block-sort suffix comparison. Each comparison walks two
 * suffixes of the block until the bytes differ or a data-dependent
 * length bound is reached; both the difference-exit branch and the
 * bound branch depend on loaded data and are unbiased.
 *
 * The slice replays the byte-compare loop (one prefetching load pair
 * and two PGIs per iteration) and demonstrates the paper's
 * skip-first-kill rule: the bound branch's loop-iteration kill is the
 * loop-header block (the back-edge target), whose first instance must
 * not kill (Section 5.1).
 */

#include "workloads/workloads.hh"

#include "common/rng.hh"
#include "isa/assembler.hh"
#include "workloads/layout.hh"

namespace specslice::workloads
{

namespace
{

constexpr std::int32_t gRemaining = 0;
constexpr std::int32_t gRngState = 8;
constexpr std::int32_t gBlockBase = 16;
constexpr std::int32_t gLenBase = 24;
constexpr std::int32_t gSink = 32;

constexpr std::uint64_t blockBytes = 1u << 20;   ///< 1 MB block
constexpr std::uint64_t lenEntries = 4096;

} // namespace

sim::Workload
buildBzip2(const Params &p)
{
    sim::Workload wl;
    wl.name = "bzip2";
    wl.scale = p.scale;

    // ~150 dynamic instructions per comparison.
    std::uint64_t compares = std::max<std::uint64_t>(1, p.scale / 150);

    isa::Assembler as(mainCodeBase);
    as.label("start");
    as.ldi64(regGp, globalsBase);
    // Software-pipelined operand generation: the (i, j, limit) triple
    // for the *next* comparison is produced one iteration early (in
    // r31-r33), so the fork point for the current comparison sits a
    // full iteration's worth of work ahead of the compare loop —
    // this is the "hoisting past unrelated code" of Section 3.2.
    as.ldq(31, regGp, gRngState);   // bootstrap: i = seed bits
    as.andi(31, 31, blockBytes - 64);
    as.ldi(32, 64);
    as.ldi(33, 4);

    as.label("cmp_loop");
    as.mov(21, 31);                 // commit next -> current (i)
    as.mov(22, 32);                 // (j)
    as.mov(23, 33);                 // (limit)
    as.label("cmp_work");           // << fork PC (operands final here)

    // Generate the following comparison's operands.
    as.ldq(5, regGp, gRngState);
    as.srli(6, 5, 12);
    as.xor_(5, 5, 6);
    as.slli(6, 5, 25);
    as.xor_(5, 5, 6);
    as.srli(6, 5, 27);
    as.xor_(5, 5, 6);
    as.stq(5, regGp, gRngState);
    as.andi(31, 5, blockBytes - 64);        // next i
    as.srli(7, 5, 24);
    as.andi(32, 7, blockBytes - 64);        // next j
    as.srli(8, 5, 44);
    as.andi(8, 8, lenEntries - 1);
    as.ldq(9, regGp, gLenBase);
    as.s8add(10, 8, 9);
    as.ldq(33, 10, 0);                      // next limit (4..20)

    // Filler: predictable bookkeeping (bucket counters etc.).
    for (int i = 0; i < 8; ++i) {
        as.addi(12, 12, 7 + i);
        as.slli(11, 12, 1);
        as.xor_(12, 12, 11);
    }
    as.stq(12, regGp, gSink);

    as.call("full_compare");

    as.ldq(2, regGp, gRemaining);
    as.subi(2, 2, 1);
    as.stq(2, regGp, gRemaining);
    as.bgt(2, "cmp_loop");
    as.halt();

    // Compare suffixes i and j up to limit bytes.
    as.label("full_compare");
    as.ldq(8, regGp, gBlockBase);
    as.ldi(4, 0);                          // k = 0
    as.label("k_loop");                    // << loop kill 2 (skip 1st)
    as.add(13, 8, 21);
    as.add(14, 8, 22);
    as.add(13, 13, 4);
    as.add(14, 14, 4);
    as.ldbu(15, 13, 0);                    // block[i+k]  << problem ld
    as.ldbu(16, 14, 0);                    // block[j+k]
    as.cmpeq(17, 15, 16);
    as.label("problem_branch1");
    as.beq(17, "cmp_differs");             // << exit when bytes differ
    as.label("cont_block");                // << loop kill 1
    as.addi(4, 4, 1);
    as.cmplt(18, 4, 23);                   // k < limit
    as.label("problem_branch2");
    as.bne(18, "k_loop");                  // << data-dependent bound
    as.br("cmp_done");
    as.label("cmp_differs");
    as.sub(19, 15, 16);
    as.stq(19, regGp, gSink);
    as.label("cmp_done");                  // << slice kill PC
    as.ret();

    isa::CodeSection main_sec = as.finish();
    auto sym = as.symbols();

    // Slice: byte-compare loop, one pref pair + two PGIs.
    isa::Assembler sl(sliceCodeBase);
    sl.label("slice");
    sl.ldq(8, regGp, gBlockBase);
    sl.add(13, 8, 21);                     // &block[i]
    sl.add(14, 8, 22);                     // &block[j]
    sl.ldi(4, 0);
    sl.label("slice_loop");
    sl.label("slice_pref");
    sl.ldbu(15, 13, 0);
    sl.ldbu(16, 14, 0);
    sl.label("slice_pgi1");
    sl.cmpeq(regZero, 15, 16);             // PGI1 (inverted)
    sl.addi(13, 13, 1);
    sl.addi(14, 14, 1);
    sl.addi(4, 4, 1);
    sl.label("slice_pgi2");
    sl.cmplt(regZero, 4, 23);              // PGI2
    sl.label("slice_backedge");
    sl.br("slice_loop");
    isa::CodeSection slice_sec = sl.finish();
    auto ssym = sl.symbols();

    wl.program.addSection(main_sec);
    wl.program.addSection(slice_sec);
    wl.program.addSymbols(sym);
    wl.program.addSymbols(ssym);
    wl.entry = sym.at("start");

    slice::SliceDescriptor sd;
    sd.name = "bzip2_compare";
    sd.forkPc = sym.at("cmp_work");
    sd.slicePc = ssym.at("slice");
    sd.liveIns = {21, 22, 23, regGp};
    sd.maxLoopIters = 12;
    sd.loopBackEdgePc = ssym.at("slice_backedge");
    sd.staticSize = static_cast<unsigned>(slice_sec.code.size());

    slice::PgiSpec pgi1;
    pgi1.sliceInstPc = ssym.at("slice_pgi1");
    pgi1.problemBranchPc = sym.at("problem_branch1");
    pgi1.invert = true;  // beq taken iff (bytes equal) == 0
    pgi1.loopKillPc = sym.at("cont_block");
    pgi1.sliceKillPc = sym.at("cmp_done");

    slice::PgiSpec pgi2;
    pgi2.sliceInstPc = ssym.at("slice_pgi2");
    pgi2.problemBranchPc = sym.at("problem_branch2");
    pgi2.invert = false;  // bne taken iff (k < limit) != 0
    // The back-edge target kills per iteration; its first instance
    // precedes the first bound branch, so it must not kill.
    pgi2.loopKillPc = sym.at("k_loop");
    pgi2.loopKillSkipFirst = true;
    pgi2.sliceKillPc = sym.at("cmp_done");
    sd.pgis = {pgi1, pgi2};

    sd.coveredBranchPcs = {sym.at("problem_branch1"),
                           sym.at("problem_branch2")};
    Addr kl = sym.at("k_loop");
    sd.coveredLoadPcs = {kl + 4 * isa::instBytes,
                         kl + 5 * isa::instBytes};
    sd.prefetchLoadPcs = {ssym.at("slice_pref"),
                          ssym.at("slice_pref") + isa::instBytes};
    wl.slices = {sd};

    std::uint64_t seed = p.seed;
    wl.initMemory = [compares, seed](arch::MemoryImage &mem) {
        Rng rng(seed * 0xda942042e4dd58b5ull + 0xca5a826395121157ull);

        const Addr block = dataBase;
        const Addr lens = dataBase2;

        // Two-symbol alphabet in runs of 16: unaligned suffix pairs
        // either differ immediately (~50 %) or stay equal until a run
        // boundary, so the loop averages several iterations and both
        // exits (difference and length bound) fire regularly.
        for (std::uint64_t i = 0; i < blockBytes; i += 32) {
            std::uint8_t sym_byte = rng.chance(1, 2) ? 0x41 : 0x42;
            for (unsigned k = 0; k < 32; ++k)
                mem.writeB(block + i + k, sym_byte);
        }
        for (std::uint64_t i = 0; i < lenEntries; ++i)
            mem.writeQ(lens + i * 8, 8 + rng.below(33));

        mem.writeQ(globalsBase + gRemaining, compares);
        mem.writeQ(globalsBase + gRngState, seed | 0x40001);
        mem.writeQ(globalsBase + gBlockBase, block);
        mem.writeQ(globalsBase + gLenBase, lens);
    };

    return wl;
}

} // namespace specslice::workloads
