/**
 * @file
 * gzip: the deflate longest-match loop. For each input position the
 * matcher walks a hash chain of earlier positions, comparing window
 * bytes; the "good enough match?" exit branch depends on the data and
 * is unbiased. The fork point sits inside a conditionally executed
 * block (literal vs. match), so a large share of forks happen on
 * speculative paths and are squashed — gzip has by far the most forks
 * and squashed forks in Table 4 (928 K forks, 334 K squashed, per
 * 100 M instructions).
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
constexpr std::int32_t gChainBase = 16;
constexpr std::int32_t gScoreBase = 24;
constexpr std::int32_t gSink = 32;

constexpr std::uint64_t numPositions = 32'768;  ///< chain entries
constexpr std::uint64_t scoreBytes = 32'768;    ///< quality array

} // namespace

sim::Workload
buildGzip(const Params &p)
{
    sim::Workload wl;
    wl.name = "gzip";
    wl.scale = p.scale;

    // ~55 dynamic instructions per position.
    std::uint64_t positions = std::max<std::uint64_t>(1, p.scale / 55);

    isa::Assembler as(mainCodeBase);
    as.label("start");
    as.ldi64(regGp, globalsBase);

    as.label("pos_loop");
    // Next pseudo-random "hash bucket".
    as.ldq(5, regGp, gRngState);
    as.srli(6, 5, 12);
    as.xor_(5, 5, 6);
    as.slli(6, 5, 25);
    as.xor_(5, 5, 6);
    as.srli(6, 5, 27);
    as.xor_(5, 5, 6);
    as.stq(5, regGp, gRngState);
    as.andi(21, 5, numPositions - 1);  // r21 = cur position (live-in)

    // The fork point is hoisted *above* the literal-vs-match guard:
    // the extra lead time makes the predictions timely, at the price
    // of useless slices on literal positions (killed by the emit
    // block) and squashed forks when the guard mispredicts — the
    // paper's gzip row has by far the most forks and squashes.
    as.label("match_hoisted");        // << fork PC (conditional!)
    as.srli(7, 5, 17);
    as.andi(7, 7, 3);
    as.label("guard_branch");
    as.beq(7, "no_match");            // ~25% skip the matcher

    as.label("match_fn");
    as.ldq(8, regGp, gChainBase);
    as.ldq(9, regGp, gScoreBase);
    as.ldi(25, 0);                    // best score
    as.mov(10, 21);                   // cur
    as.label("chain_loop");
    as.s4add(11, 10, 8);              // &chain[cur]
    as.ldl(12, 11, 0);                // cur = chain[cur]
    as.add(13, 9, 12);                // &score[cur]
    as.ldbu(14, 13, 0);               // score byte
    as.cmplti(15, 14, 168);           // good enough? (unbiased)
    as.label("problem_branch");
    as.bne(15, "chain_next");         // << problem branch
    as.add(25, 25, 14);               // record match
    as.br("match_done");
    as.label("chain_next");           // << loop-iteration kill PC
    as.mov(10, 12);
    as.bne(12, "chain_loop");         // chain end (index 0)
    as.label("match_done");
    as.stq(25, regGp, gSink);
    as.label("no_match");             // << slice kill PC (postdominates
                                      //    both the match and literal
                                      //    paths)
    // Emit/literal bookkeeping (predictable).
    for (int i = 0; i < 6; ++i) {
        as.addi(17, 17, 5 + i);
        as.slli(16, 17, 1);
        as.xor_(17, 17, 16);
    }

    as.ldq(2, regGp, gRemaining);
    as.subi(2, 2, 1);
    as.stq(2, regGp, gRemaining);
    as.bgt(2, "pos_loop");
    as.halt();

    isa::CodeSection main_sec = as.finish();
    auto sym = as.symbols();

    // Slice: walk the chain, predict the quality branch per link.
    isa::Assembler sl(sliceCodeBase);
    sl.label("slice");
    sl.ldq(8, regGp, gChainBase);
    sl.ldq(9, regGp, gScoreBase);
    sl.mov(10, 21);
    sl.label("slice_loop");
    sl.s4add(11, 10, 8);
    sl.ldl(10, 11, 0);               // cur = chain[cur]
    sl.add(13, 9, 10);
    sl.ldbu(14, 13, 0);
    sl.label("slice_pgi");
    sl.cmplti(regZero, 14, 168);     // PGI: good enough
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
    sd.name = "gzip_match";
    sd.forkPc = sym.at("match_hoisted");
    sd.slicePc = ssym.at("slice");
    sd.liveIns = {21, regGp};
    sd.maxLoopIters = 8;
    sd.loopBackEdgePc = ssym.at("slice_backedge");
    sd.staticSize = static_cast<unsigned>(slice_sec.code.size());

    slice::PgiSpec pgi;
    pgi.sliceInstPc = ssym.at("slice_pgi");
    pgi.problemBranchPc = sym.at("problem_branch");
    pgi.invert = false;  // bne taken iff (score < 168) != 0
    pgi.loopKillPc = sym.at("chain_next");
    pgi.sliceKillPc = sym.at("no_match");
    sd.pgis = {pgi};

    sd.coveredBranchPcs = {sym.at("problem_branch")};
    wl.slices = {sd};

    std::uint64_t seed = p.seed;
    wl.initMemory = [positions, seed](arch::MemoryImage &mem) {
        Rng rng(seed * 0xd1342543de82ef95ull + 0xaf251af3b0f025b5ull);

        const Addr chain = dataBase;        // u32[numPositions]
        const Addr score = dataBase2;       // u8[scoreBytes]

        // chain[i] jumps to a pseudo-random earlier position;
        // index 0 terminates.
        for (std::uint64_t i = 1; i < numPositions; ++i) {
            std::uint32_t prev =
                rng.chance(1, 5)
                    ? 0
                    : static_cast<std::uint32_t>(rng.below(i));
            mem.writeL(chain + i * 4, prev);
        }
        mem.writeL(chain + 0, 0);
        for (std::uint64_t i = 0; i < scoreBytes; ++i)
            mem.writeB(score + i,
                       static_cast<std::uint8_t>(rng.below(256)));

        mem.writeQ(globalsBase + gRemaining, positions);
        mem.writeQ(globalsBase + gRngState, seed | 0x2000001);
        mem.writeQ(globalsBase + gChainBase, chain);
        mem.writeQ(globalsBase + gScoreBase, score);
    };

    return wl;
}

} // namespace specslice::workloads
