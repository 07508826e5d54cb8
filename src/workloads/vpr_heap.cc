/**
 * @file
 * vpr: the paper's running example (Sections 2.4 and 3.2, Figures
 * 2-5). A binary heap of pointers, stored as an array with children of
 * node N at 2N and 2N+1. Insertion appends at heap_tail and sifts the
 * new element up while its cost is less than its parent's cost.
 *
 * Problem instructions (Figure 2): the load of heap[ito]->cost (the
 * heap spans more than the L1) and the unbiased comparison branch
 * (average trickle distance 2-3 iterations).
 *
 * The slice is the Figure 5 slice: forked at the entry of
 * node_to_heap, live-ins {cost, gp}, it walks the ancestor chain
 * (ito /= 2), prefetching heap[ito] and heap[ito]->cost and generating
 * one branch prediction per iteration via an fcmple PGI. The slice
 * demonstrates the paper's two optimizations: *register allocation*
 * (heap[ifrom]->cost is always the live-in cost, so all loads of it
 * and the swap stores disappear) and *strength reduction* (the 3-
 * instruction signed-division sequence becomes one arithmetic shift).
 * Loop-exit computation is omitted entirely; the slice relies on the
 * profile-derived maximum iteration count (18).
 */

#include "workloads/workloads.hh"

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "isa/assembler.hh"
#include "workloads/layout.hh"

namespace specslice::workloads
{

namespace
{

// Globals (offsets from gp).
constexpr std::int32_t gHeapTail = 0;
constexpr std::int32_t gHeapBase = 8;
constexpr std::int32_t gPoolNext = 16;
constexpr std::int32_t gRngState = 24;
constexpr std::int32_t gFillerBase = 32;
constexpr std::int32_t gRemaining = 40;
constexpr std::int32_t gCapacity = 48;
constexpr std::int32_t gSink = 56;

// s_heap element layout: { u64 payload; double cost; } (16 bytes).
constexpr std::int32_t elemCost = 8;
constexpr unsigned elemSize = 16;

constexpr std::uint64_t heapElems = 100'000;  ///< pre-filled heap size
constexpr std::uint64_t heapHeadroom = 32'768;

} // namespace

sim::Workload
buildVpr(const Params &p)
{
    sim::Workload wl;
    wl.name = "vpr";
    wl.scale = p.scale;

    // Roughly 170 dynamic instructions per insertion (filler + RNG +
    // node_to_heap + trickle loop).
    std::uint64_t insertions = std::max<std::uint64_t>(1, p.scale / 170);

    // ---------------- main program ----------------
    isa::Assembler as(mainCodeBase);

    as.label("start");
    as.ldi64(regGp, globalsBase);

    as.label("main_loop");
    // Filler: predictable pass over a small L1-resident array (stands
    // in for the router work around node_to_heap in real vpr).
    as.ldq(1, regGp, gFillerBase);
    as.ldi(3, 0);
    for (int i = 0; i < 12; ++i) {
        as.ldq(4, 1, 8 * i);
        as.add(3, 3, 4);
        as.slli(5, 3, 1);
        as.xor_(3, 3, 5);
    }
    as.stq(3, regGp, gSink);

    // cost = uniform double in a window just above the typical leaf
    // cost, so insertions trickle 2-3 levels on average.
    as.ldq(5, regGp, gRngState);
    as.ldi64(6, 6364136223846793005ull);
    as.mul(5, 5, 6);
    as.ldi64(7, 1442695040888963407ull);
    as.add(5, 5, 7);
    as.stq(5, regGp, gRngState);
    as.srli(7, 5, 33);
    as.andi(7, 7, 0xffff);       // 0..65535
    as.srli(8, 7, 9);            // 0..127
    as.addi(8, 8, 66);           // 66..193, straddles ancestor costs
    as.cvtif(17, 8);             // r17 = cost (double), slice live-in

    // A little more caller work between cost computation and the call
    // (the "..." in Figure 3).
    as.mul(9, 7, 7);
    as.addi(9, 9, 3);
    as.xor_(9, 9, 7);
    as.srli(9, 9, 2);
    as.add(9, 9, 3);
    as.stq(9, regGp, gSink);

    as.call("node_to_heap");

    as.ldq(2, regGp, gRemaining);
    as.subi(2, 2, 1);
    as.stq(2, regGp, gRemaining);
    as.bgt(2, "main_loop");
    as.halt();

    // ------------- node_to_heap (fork point) -------------
    as.label("node_to_heap");  // <- slice fork PC
    // hptr = alloc_heap_data()
    as.ldq(8, regGp, gPoolNext);
    as.addi(9, 8, elemSize);
    as.stq(9, regGp, gPoolNext);
    // hptr->cost = cost; hptr->payload = 0
    as.stq(17, 8, elemCost);
    as.stq(regZero, 8, 0);
    // ~32 instructions of unrelated field setup / caller work that the
    // fork is hoisted past (Section 3.2's "60 dynamic instructions").
    for (int i = 0; i < 8; ++i) {
        as.addi(10, 9, 7 + i);
        as.slli(10, 10, 3);
        as.xor_(11, 10, 9);
        as.stq(11, regGp, gSink);
    }

    // --- add_to_heap, inlined by the compiler (Figure 4) ---
    as.ldq(10, regGp, gHeapTail);   // ifrom = heap_tail
    as.ldq(5, regGp, gHeapBase);    // &heap[0]
    as.cmplti(11, 10, 0);           // see note (div-by-2 sequence)
    as.addi(12, 10, 1);             // heap_tail + 1
    as.s8add(13, 10, 5);            // &heap[heap_tail]
    as.stq(12, regGp, gHeapTail);   // store heap_tail
    as.stq(8, 13, 0);               // heap[heap_tail] = hptr
    as.add(11, 10, 11);             // see note
    as.srai(11, 11, 1);             // ito = ifrom / 2
    as.ble(11, "nth_return");       // (ito < 1)

    as.label("heap_loop");
    as.s8add(14, 10, 5);            // &heap[ifrom]
    as.s8add(15, 11, 5);            // &heap[ito]
    as.cmplti(16, 11, 0);           // see note
    as.mov(20, 11);                 // ifrom' = ito
    as.ldq(18, 14, 0);              // heap[ifrom]
    as.ldq(19, 15, 0);              // heap[ito]
    as.add(16, 11, 16);             // see note
    as.srai(16, 16, 1);             // ito = ito / 2
    as.ldq(21, 18, elemCost);       // heap[ifrom]->cost
    as.ldq(22, 19, elemCost);       // heap[ito]->cost   << problem load
    as.fcmplt(23, 21, 22);          // ifrom->cost < ito->cost
    as.label("problem_branch");
    as.beq(23, "nth_return");       // << problem branch (exit if !<)
    as.label("swap_block");         // << loop-iteration kill PC
    as.stq(18, 15, 0);              // heap[ito] = heap[ifrom]
    as.stq(19, 14, 0);              // heap[ifrom] = temp
    as.mov(10, 20);                 // ifrom = old ito
    as.mov(11, 16);                 // ito already divided
    as.label("backedge_branch");
    as.bgt(16, "heap_loop");        // (ito >= 1)  << problem branch 2

    as.label("nth_return");         // << slice kill PC
    // Heap-capacity wrap: keep the tree bounded but valid.
    as.ldq(12, regGp, gHeapTail);
    as.ldq(24, regGp, gCapacity);
    as.cmplt(25, 12, 24);
    as.bne(25, "nth_ret2");
    as.ldi64(26, heapElems + 1);
    as.stq(26, regGp, gHeapTail);
    as.label("nth_ret2");
    as.ret();

    isa::CodeSection main_sec = as.finish();
    auto symbols = as.symbols();

    // ---------------- slice (Figure 5) ----------------
    isa::Assembler sl(sliceCodeBase);
    sl.label("slice");
    sl.ldq(6, regGp, gHeapBase);   // &heap
    sl.ldq(3, regGp, gHeapTail);   // ito = heap_tail
    sl.label("slice_loop");
    sl.srai(3, 3, 1);              // ito /= 2 (strength-reduced)
    sl.s8add(16, 3, 6);            // &heap[ito]
    sl.label("slice_pref1");
    sl.ldq(18, 16, 0);             // heap[ito]
    sl.label("slice_pref2");
    sl.ldq(19, 18, elemCost);      // heap[ito]->cost
    sl.label("slice_pgi");
    sl.fcmple(regZero, 19, 17);    // (heap[ito]->cost <= cost)  PGI 1
    sl.srai(7, 3, 1);              // next ito
    sl.label("slice_pgi_backedge");
    sl.cmplt(regZero, regZero, 7); // (next ito >= 1)             PGI 2
    sl.label("slice_backedge");
    sl.br("slice_loop");
    isa::CodeSection slice_sec = sl.finish();
    auto ssym = sl.symbols();

    wl.program.addSection(main_sec);
    wl.program.addSection(slice_sec);
    wl.program.addSymbols(symbols);
    wl.program.addSymbols(ssym);
    wl.entry = symbols.at("start");

    // ---------------- slice descriptor ----------------
    slice::SliceDescriptor sd;
    sd.name = "vpr_heap_insert";
    sd.forkPc = symbols.at("node_to_heap");
    sd.slicePc = ssym.at("slice");
    sd.liveIns = {17, regGp};      // cost, gp
    sd.maxLoopIters = 18;
    sd.loopBackEdgePc = ssym.at("slice_backedge");
    sd.staticSize = static_cast<unsigned>(slice_sec.code.size());

    slice::PgiSpec pgi;
    pgi.sliceInstPc = ssym.at("slice_pgi");
    pgi.problemBranchPc = symbols.at("problem_branch");
    pgi.invert = false;
    pgi.loopKillPc = symbols.at("swap_block");
    pgi.sliceKillPc = symbols.at("nth_return");
    pgi.loopKillSkipFirst = false;

    slice::PgiSpec pgi2;
    pgi2.sliceInstPc = ssym.at("slice_pgi_backedge");
    pgi2.problemBranchPc = symbols.at("backedge_branch");
    pgi2.invert = false;  // bgt taken iff next ito >= 1
    // The back-edge's iteration kill is the loop-header block (the
    // back-edge target): its first instance must not kill.
    pgi2.loopKillPc = symbols.at("heap_loop");
    pgi2.loopKillSkipFirst = true;
    pgi2.sliceKillPc = symbols.at("nth_return");
    sd.pgis = {pgi, pgi2};

    sd.coveredBranchPcs = {symbols.at("problem_branch"),
                           symbols.at("backedge_branch")};
    // The two loads the slice prefetches in the main thread.
    Addr loop_base = symbols.at("heap_loop");
    sd.coveredLoadPcs = {loop_base + 5 * isa::instBytes,   // heap[ito]
                         loop_base + 9 * isa::instBytes};  // ->cost
    sd.prefetchLoadPcs = {ssym.at("slice_pref1"),
                          ssym.at("slice_pref2")};
    wl.slices = {sd};

    // ---------------- memory initializer ----------------
    std::uint64_t seed = p.seed;
    wl.initMemory = [insertions, seed](arch::MemoryImage &mem) {
        Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull);

        const Addr heap_arr = dataBase;                 // heap[0..cap]
        const Addr pool = dataBase2;                    // elements
        const Addr filler = globalsBase + 0x800;

        // Heap costs along each root-to-leaf path increase, so a fresh
        // cost drawn near the leaf range trickles a couple of levels.
        std::vector<double> cost(heapElems + 1);
        cost[1] = 0.0;
        for (std::uint64_t k = 2; k <= heapElems; ++k)
            cost[k] = cost[k / 2] +
                      static_cast<double>(rng.below(16 * 1024)) / 1024.0;

        // Scatter elements through the pool so ancestor-chain derefs
        // lack spatial locality (a random permutation of pool slots).
        std::vector<std::uint32_t> perm(heapElems + 1);
        for (std::uint64_t k = 0; k <= heapElems; ++k)
            perm[k] = static_cast<std::uint32_t>(k);
        for (std::uint64_t k = heapElems; k >= 2; --k) {
            std::uint64_t j = 1 + rng.below(k);
            std::swap(perm[k], perm[j]);
        }

        for (std::uint64_t k = 1; k <= heapElems; ++k) {
            Addr elem = pool + static_cast<Addr>(perm[k]) * elemSize;
            mem.writeQ(elem + 0, k);
            mem.writeF(elem + elemCost, cost[k]);
            mem.writeQ(heap_arr + k * 8, elem);
        }
        // heap[0] is a sentinel with cost 0 so the slice's walk past
        // the root compares against something harmless.
        Addr dummy = pool;  // slot 0 (perm[0] == 0)
        mem.writeF(dummy + elemCost, 0.0);
        mem.writeQ(heap_arr + 0, dummy);

        for (int i = 0; i < 16; ++i)
            mem.writeQ(filler + 8 * i, i * 3 + 1);

        mem.writeQ(globalsBase + gHeapTail, heapElems + 1);
        mem.writeQ(globalsBase + gHeapBase, heap_arr);
        mem.writeQ(globalsBase + gPoolNext,
                   pool + (heapElems + 1) * elemSize);
        mem.writeQ(globalsBase + gRngState, seed | 1);
        mem.writeQ(globalsBase + gFillerBase, filler);
        mem.writeQ(globalsBase + gRemaining, insertions);
        mem.writeQ(globalsBase + gCapacity, heapElems + heapHeadroom);
    };

    return wl;
}

} // namespace specslice::workloads
