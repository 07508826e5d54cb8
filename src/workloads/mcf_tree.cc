/**
 * @file
 * mcf: pointer-chasing over a multi-megabyte linked structure (the
 * network-simplex tree walk of refresh_potential). The dominant PDEs
 * are the node-field loads — every node is a fresh cache line in
 * pseudo-random order, defeating the stream prefetcher — plus an
 * unbiased branch on a loaded node field.
 *
 * The slice walks the same chain ahead of the main thread, prefetching
 * each node and generating one branch prediction per node. Because the
 * walk is a serial chain of misses, "the work performed at each node is
 * insufficient to cover the latency of the sequential memory accesses"
 * (Section 6.1): the slice cannot get far ahead, many predictions are
 * late, and most of the benefit comes from overlapping (MSHR-merged)
 * misses rather than removed mispredictions — matching Table 4's mcf
 * row (~80 % of the speedup from loads, only 15 % of mispredictions
 * removed).
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
constexpr std::int32_t gSink = 8;

// Node layout (one cache line per node).
constexpr std::int32_t nNext = 0;
constexpr std::int32_t nVal = 8;
constexpr std::int32_t nWeight = 16;
constexpr unsigned nodeSize = 64;

constexpr std::uint64_t numNodes = 100'000;  ///< 6.4 MB, beyond the L2
constexpr unsigned chunkNodes = 64;          ///< nodes per fork

} // namespace

sim::Workload
buildMcf(const Params &p)
{
    sim::Workload wl;
    wl.name = "mcf";
    wl.scale = p.scale;

    // ~9.5 instructions per node: three loads, add, andi, beq, subi
    // and bgt, plus add/srli/xor on the half of the nodes whose
    // orientation bit is set. Dividing by 9 errs long: the walk runs
    // about 1.05 times the scale.
    std::uint64_t chunks =
        std::max<std::uint64_t>(1, p.scale / (chunkNodes * 9));

    isa::Assembler as(mainCodeBase);
    as.label("start");
    as.ldi64(regGp, globalsBase);
    as.ldi64(20, dataBase);       // r20 = current node (register global)
    as.ldi(25, 0);                // accumulator

    as.label("outer_loop");
    as.call("refresh_chunk");
    // Light bookkeeping between chunks.
    as.stq(25, regGp, gSink);
    as.ldq(2, regGp, gRemaining);
    as.subi(2, 2, 1);
    as.stq(2, regGp, gRemaining);
    as.bgt(2, "outer_loop");
    as.halt();

    // Walk chunkNodes nodes from r20 (the fork point; r20 is the
    // slice's live-in root value).
    as.label("refresh_chunk");   // << fork PC
    as.ldi(21, chunkNodes);
    as.label("node_loop");
    as.ldq(22, 20, nVal);        // node->val        << problem load
    as.ldq(23, 20, nWeight);     // node->weight
    as.ldq(20, 20, nNext);       // node = node->next << problem load
    as.add(25, 25, 23);          // potential += weight
    as.andi(24, 22, 1);          // orientation test on loaded data
    as.label("problem_branch");
    as.beq(24, "skip_adjust");   // << problem branch (unbiased)
    as.add(25, 25, 22);          // adjust on "up" orientation
    as.srli(26, 22, 3);
    as.xor_(25, 25, 26);
    as.label("skip_adjust");
    as.label("node_tail");       // << loop-iteration kill PC
    as.subi(21, 21, 1);
    as.bgt(21, "node_loop");
    as.label("chunk_end");       // << slice kill PC
    as.ret();

    isa::CodeSection main_sec = as.finish();
    auto sym = as.symbols();

    // Slice: chase the chain, prefetch the node, predict the
    // orientation branch. 5 instructions in the loop.
    isa::Assembler sl(sliceCodeBase);
    sl.label("slice");
    sl.mov(2, 20);               // node (live-in r20)
    sl.label("slice_loop");
    sl.label("slice_pref");
    sl.ldq(3, 2, nVal);          // prefetch node line + load val
    sl.ldq(2, 2, nNext);         // advance (same line)
    sl.label("slice_pgi");
    sl.andi(regZero, 3, 1);      // PGI: orientation != 0 -> taken? no:
                                 // main takes beq when (val&1)==0
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
    sd.name = "mcf_refresh";
    sd.forkPc = sym.at("refresh_chunk");
    sd.slicePc = ssym.at("slice");
    sd.liveIns = {20};
    sd.maxLoopIters = 98;
    sd.loopBackEdgePc = ssym.at("slice_backedge");
    sd.staticSize = static_cast<unsigned>(slice_sec.code.size());

    slice::PgiSpec pgi;
    pgi.sliceInstPc = ssym.at("slice_pgi");
    pgi.problemBranchPc = sym.at("problem_branch");
    // Main: beq taken iff (val & 1) == 0; the PGI computes (val & 1).
    pgi.invert = true;
    pgi.loopKillPc = sym.at("node_tail");
    pgi.sliceKillPc = sym.at("chunk_end");
    sd.pgis = {pgi};

    sd.coveredBranchPcs = {sym.at("problem_branch")};
    Addr nl = sym.at("node_loop");
    sd.coveredLoadPcs = {nl, nl + isa::instBytes,
                         nl + 2 * isa::instBytes};
    sd.prefetchLoadPcs = {ssym.at("slice_pref"),
                          ssym.at("slice_pref") + isa::instBytes};
    wl.slices = {sd};

    std::uint64_t seed = p.seed;
    wl.initMemory = [chunks, seed](arch::MemoryImage &mem) {
        Rng rng(seed * 0x2545f4914f6cdd1dull + 0x9e3779b97f4a7c15ull);

        // A random Hamiltonian cycle over the nodes: pseudo-random
        // successor order defeats both spatial locality and the stream
        // prefetcher.
        std::vector<std::uint32_t> order(numNodes);
        for (std::uint64_t i = 0; i < numNodes; ++i)
            order[i] = static_cast<std::uint32_t>(i);
        for (std::uint64_t i = numNodes - 1; i >= 1; --i) {
            std::uint64_t j = rng.below(i + 1);
            std::swap(order[i], order[j]);
        }
        // Ensure the walk starts at node 0 (dataBase).
        for (std::uint64_t i = 0; i < numNodes; ++i) {
            if (order[i] == 0) {
                std::swap(order[i], order[0]);
                break;
            }
        }
        for (std::uint64_t i = 0; i < numNodes; ++i) {
            Addr node = dataBase + static_cast<Addr>(order[i]) * nodeSize;
            Addr next = dataBase +
                        static_cast<Addr>(order[(i + 1) % numNodes]) *
                            nodeSize;
            mem.writeQ(node + nNext, next);
            mem.writeQ(node + nVal, rng.next() & 0xffff);
            mem.writeQ(node + nWeight, rng.below(1024));
        }

        mem.writeQ(globalsBase + gRemaining, chunks);
    };

    return wl;
}

} // namespace specslice::workloads
