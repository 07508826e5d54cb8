/**
 * @file
 * twolf: standard-cell placement cost evaluation. Each step picks a
 * pseudo-random cell and walks its short net list (1-6 nodes,
 * average ~3), testing each pin's cost against the cell's threshold.
 * The per-pin comparison branches are data-dependent and unbiased —
 * twolf is the most branch-bound benchmark in Table 2 (51 % of dynamic
 * branches at problem PCs) — while the net nodes are small enough that
 * loads mostly hit: the slice is prediction-only (Table 3's twolf row:
 * 2 predictions in the loop, no prefetches, max 7 iterations).
 */

#include "workloads/workloads.hh"

#include <vector>

#include "common/rng.hh"
#include "isa/assembler.hh"
#include "workloads/layout.hh"

namespace specslice::workloads
{

namespace
{

constexpr std::int32_t gRemaining = 0;
constexpr std::int32_t gRngState = 8;
constexpr std::int32_t gCellBase = 16;
constexpr std::int32_t gSink = 24;

// Cell: { net head ptr, threshold1, threshold2 } (32 bytes).
constexpr std::int32_t cHead = 0;
constexpr std::int32_t cT1 = 8;
constexpr std::int32_t cT2 = 16;
constexpr unsigned cellSize = 32;

// Net node: { next, cost1, cost2 } (32 bytes).
constexpr std::int32_t nNext = 0;
constexpr std::int32_t nC1 = 8;
constexpr std::int32_t nC2 = 16;
constexpr unsigned nodeSize = 32;

constexpr std::uint64_t numCells = 2048;
constexpr std::uint64_t numNodes = 8192;   ///< 256 KB: misses modest

} // namespace

sim::Workload
buildTwolf(const Params &p)
{
    sim::Workload wl;
    wl.name = "twolf";
    wl.scale = p.scale;

    // ~70 dynamic instructions per step.
    std::uint64_t steps = std::max<std::uint64_t>(1, p.scale / 70);

    isa::Assembler as(mainCodeBase);
    as.label("start");
    as.ldi64(regGp, globalsBase);

    as.label("step_loop");
    // Pick a pseudo-random cell (xorshift; cheap and predictable).
    as.ldq(5, regGp, gRngState);
    as.srli(6, 5, 12);
    as.xor_(5, 5, 6);
    as.slli(6, 5, 25);
    as.xor_(5, 5, 6);
    as.srli(6, 5, 27);
    as.xor_(5, 5, 6);
    as.stq(5, regGp, gRngState);
    as.andi(6, 5, numCells - 1);
    as.slli(6, 6, 5);              // * cellSize
    as.ldq(7, regGp, gCellBase);
    as.add(21, 6, 7);              // r21 = &cell (slice live-in)

    // Filler: a little predictable arithmetic per step.
    as.ldi(10, 0);
    for (int i = 0; i < 8; ++i) {
        as.addi(10, 10, 3 + i);
        as.slli(11, 10, 2);
        as.xor_(10, 10, 11);
    }
    as.stq(10, regGp, gSink);

    as.call("eval_cell");

    as.ldq(2, regGp, gRemaining);
    as.subi(2, 2, 1);
    as.stq(2, regGp, gRemaining);
    as.bgt(2, "step_loop");
    as.halt();

    // Evaluate one cell's net list.
    as.label("eval_cell");        // << fork PC
    as.ldq(12, 21, cT1);          // threshold1
    as.ldq(13, 21, cT2);          // threshold2
    as.ldq(14, 21, cHead);        // node = cell->head
    as.ldi(25, 0);                // local gain
    as.label("pin_loop");
    as.ldq(15, 14, nC1);          // pin->cost1
    as.ldq(16, 14, nC2);          // pin->cost2
    as.cmplt(17, 15, 12);         // cost1 < t1
    as.label("problem_branch1");
    as.beq(17, "no_gain");        // << problem branch 1 (unbiased)
    as.add(25, 25, 15);
    as.label("no_gain");
    as.cmplt(18, 16, 13);         // cost2 < t2
    as.label("problem_branch2");
    as.beq(18, "no_penalty");     // << problem branch 2 (unbiased)
    as.sub(25, 25, 16);
    as.label("no_penalty");
    as.label("pin_tail");         // << loop-iteration kill PC
    as.ldq(14, 14, nNext);        // node = node->next
    as.bne(14, "pin_loop");
    as.label("eval_done");        // << slice kill PC
    as.stq(25, regGp, gSink);
    as.ret();

    isa::CodeSection main_sec = as.finish();
    auto sym = as.symbols();

    // Slice (8 static, 5 in loop): two predictions per pin.
    isa::Assembler sl(sliceCodeBase);
    sl.label("slice");
    sl.ldq(12, 21, cT1);
    sl.ldq(13, 21, cT2);
    sl.ldq(14, 21, cHead);
    sl.label("slice_loop");
    sl.ldq(15, 14, nC1);
    sl.ldq(16, 14, nC2);
    sl.label("slice_pgi1");
    sl.cmplt(regZero, 15, 12);    // PGI 1
    sl.label("slice_pgi2");
    sl.cmplt(regZero, 16, 13);    // PGI 2
    sl.ldq(14, 14, nNext);        // null deref terminates the slice
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
    sd.name = "twolf_eval";
    sd.forkPc = sym.at("eval_cell");
    sd.slicePc = ssym.at("slice");
    sd.liveIns = {21};
    sd.maxLoopIters = 7;
    sd.loopBackEdgePc = ssym.at("slice_backedge");
    sd.staticSize = static_cast<unsigned>(slice_sec.code.size());

    slice::PgiSpec pgi1;
    pgi1.sliceInstPc = ssym.at("slice_pgi1");
    pgi1.problemBranchPc = sym.at("problem_branch1");
    pgi1.invert = true;  // main takes beq when (cost1 < t1) == 0
    pgi1.loopKillPc = sym.at("pin_tail");
    pgi1.sliceKillPc = sym.at("eval_done");
    slice::PgiSpec pgi2 = pgi1;
    pgi2.sliceInstPc = ssym.at("slice_pgi2");
    pgi2.problemBranchPc = sym.at("problem_branch2");
    sd.pgis = {pgi1, pgi2};

    sd.coveredBranchPcs = {sym.at("problem_branch1"),
                           sym.at("problem_branch2")};
    wl.slices = {sd};

    std::uint64_t seed = p.seed;
    wl.initMemory = [steps, seed](arch::MemoryImage &mem) {
        Rng rng(seed * 0x94d049bb133111ebull + 0xbf58476d1ce4e5b9ull);

        const Addr cells = dataBase;
        const Addr nodes = dataBase2;

        // Chain nodes into per-cell nets of geometric length (avg ~3).
        std::uint64_t node_idx = 0;
        for (std::uint64_t c = 0; c < numCells; ++c) {
            Addr cell = cells + c * cellSize;
            unsigned len = 1;
            while (len < 6 && rng.chance(2, 3))
                ++len;
            Addr head = 0;
            for (unsigned k = 0; k < len; ++k) {
                Addr node =
                    nodes + (node_idx % numNodes) * nodeSize;
                ++node_idx;
                mem.writeQ(node + nNext, head);
                mem.writeQ(node + nC1, rng.below(1000));
                mem.writeQ(node + nC2, rng.below(1000));
                head = node;
            }
            mem.writeQ(cell + cHead, head);
            // Thresholds near the cost median keep both branches
            // unbiased.
            mem.writeQ(cell + cT1, 420 + rng.below(200));
            mem.writeQ(cell + cT2, 420 + rng.below(200));
        }

        mem.writeQ(globalsBase + gRemaining, steps);
        mem.writeQ(globalsBase + gRngState, seed | 0x10001);
        mem.writeQ(globalsBase + gCellBase, cells);
    };

    return wl;
}

} // namespace specslice::workloads
