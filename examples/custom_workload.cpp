/**
 * @file
 * Building your own workload and slice against the public API: a
 * linked-list search kernel, written with the zsr assembler, plus a
 * hand-constructed speculative slice for its problem branch and load —
 * the workflow of Section 3.2 (pick a fork point, extract the
 * computation, annotate PGIs and kills, bound the loop).
 */

#include <cstdio>

#include "common/rng.hh"
#include "isa/assembler.hh"
#include "sim/simulator.hh"
#include "sim/workload.hh"

using namespace specslice;

namespace
{

constexpr Addr codeBase = 0x10000;
constexpr Addr sliceBase = 0x8000;
constexpr Addr globals = 0x100000;
constexpr Addr nodesBase = 0x2000000;

// Node: { next, key } (32 bytes; one per line pair).
constexpr unsigned nodeSize = 32;
constexpr std::uint64_t numNodes = 65'536;  ///< 2 MB of nodes
constexpr std::uint64_t numHeads = 1024;

sim::Workload
buildListSearch()
{
    sim::Workload wl;
    wl.name = "custom_list_search";

    // ---- main program: search a random list for a random key ----
    isa::Assembler as(codeBase);
    as.label("start");
    as.ldi64(30, globals);

    as.label("search_loop");
    // xorshift RNG for the list pick and the probe key.
    as.ldq(5, 30, 8);
    as.srli(6, 5, 12);
    as.xor_(5, 5, 6);
    as.slli(6, 5, 25);
    as.xor_(5, 5, 6);
    as.srli(6, 5, 27);
    as.xor_(5, 5, 6);
    as.stq(5, 30, 8);
    as.andi(6, 5, numHeads - 1);
    as.ldq(7, 30, 16);            // heads base
    as.s8add(8, 6, 7);
    as.ldq(21, 8, 0);             // r21 = list head   (live-in)
    as.srli(22, 5, 40);
    as.andi(22, 22, 1023);        // r22 = probe key   (live-in)

    as.label("search_fn");        // << fork point
    // Some caller work the fork is hoisted past.
    for (int i = 0; i < 10; ++i) {
        as.addi(10, 10, 3 + i);
        as.xor_(10, 10, 5);
    }
    as.mov(14, 21);
    as.label("walk");
    as.ldq(15, 14, 8);            // node->key    << problem load
    as.cmpeq(16, 15, 22);
    as.label("found_branch");
    as.bne(16, "found");          // << problem branch
    as.label("advance");          // << loop-iteration kill
    as.ldq(14, 14, 0);            // node = node->next
    as.bne(14, "walk");
    as.br("done");
    as.label("found");
    as.stq(15, 30, 32);           // record the hit
    as.label("done");             // << slice kill
    as.stq(14, 30, 24);
    as.ldq(2, 30, 0);
    as.subi(2, 2, 1);
    as.stq(2, 30, 0);
    as.bgt(2, "search_loop");
    as.halt();

    isa::CodeSection main_sec = as.finish();
    auto sym = as.symbols();

    // ---- the slice: walk ahead, prefetch, predict (Section 3.2) ----
    isa::Assembler sl(sliceBase);
    sl.label("slice");
    sl.mov(14, 21);
    sl.label("slice_loop");
    sl.label("slice_pref");
    sl.ldq(15, 14, 8);            // prefetch node, load key
    sl.label("slice_pgi");
    sl.cmpeq(isa::regZero, 15, 22);
    sl.ldq(14, 14, 0);            // advance (null faults: terminates)
    sl.br("slice_loop");
    isa::CodeSection slice_sec = sl.finish();
    auto ssym = sl.symbols();

    wl.program.addSection(main_sec);
    wl.program.addSection(slice_sec);
    wl.program.addSymbols(sym);
    wl.program.addSymbols(ssym);
    wl.entry = sym.at("start");

    // ---- annotations (cf. Figure 5's fork / live-in / max-iter) ----
    slice::SliceDescriptor sd;
    sd.name = "list_search_slice";
    sd.forkPc = sym.at("search_fn");
    sd.slicePc = ssym.at("slice");
    sd.liveIns = {21, 22};
    sd.maxLoopIters = 48;  // profile-derived bound on list walks
    sd.loopBackEdgePc = ssym.at("slice") + 4 * isa::instBytes;
    sd.staticSize = static_cast<unsigned>(slice_sec.code.size());

    slice::PgiSpec pgi;
    pgi.sliceInstPc = ssym.at("slice_pgi");
    pgi.problemBranchPc = sym.at("found_branch");
    pgi.invert = false;
    pgi.loopKillPc = sym.at("advance");
    pgi.sliceKillPc = sym.at("done");
    sd.pgis = {pgi};
    sd.coveredBranchPcs = {sym.at("found_branch")};
    sd.coveredLoadPcs = {sym.at("walk")};
    sd.prefetchLoadPcs = {ssym.at("slice_pref")};
    wl.slices = {sd};

    // ---- data: scattered singly-linked lists ----
    wl.initMemory = [](arch::MemoryImage &mem) {
        Rng rng(0xabcdef12345ull);
        const Addr heads = globals + 0x1000;
        std::uint64_t node = 0;
        for (std::uint64_t h = 0; h < numHeads; ++h) {
            unsigned len = 4 + static_cast<unsigned>(rng.below(40));
            Addr head = 0;
            for (unsigned k = 0; k < len; ++k) {
                Addr a = nodesBase +
                         ((node * 2654435761u) % numNodes) * nodeSize;
                ++node;
                mem.writeQ(a + 0, head);
                mem.writeQ(a + 8, rng.below(1024));
                head = a;
            }
            mem.writeQ(heads + h * 8, head);
        }
        mem.writeQ(globals + 0, 4000);      // searches
        mem.writeQ(globals + 8, 0x1234567); // rng state
        mem.writeQ(globals + 16, heads);
    };
    return wl;
}

} // namespace

int
main()
{
    sim::Workload wl = buildListSearch();
    std::printf("custom workload '%s': %zu static instructions\n\n",
                wl.name.c_str(), wl.program.staticSize());

    sim::Simulator machine(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.maxMainInstructions = 150'000;
    opts.warmupInstructions = 40'000;

    auto base = machine.runBaseline(wl, opts);
    auto sliced = machine.run(wl, opts, true);

    std::printf("baseline:    IPC %.2f, %llu mispredictions, %llu L1 "
                "misses\n",
                base.ipc(),
                static_cast<unsigned long long>(base.mispredictions),
                static_cast<unsigned long long>(base.l1dMissesMain));
    std::printf("with slice:  IPC %.2f, %llu mispredictions, %llu L1 "
                "misses\n",
                sliced.ipc(),
                static_cast<unsigned long long>(sliced.mispredictions),
                static_cast<unsigned long long>(sliced.l1dMissesMain));
    std::printf("speedup: %.1f%%\n",
                100.0 * (static_cast<double>(base.cycles) /
                             static_cast<double>(sliced.cycles) -
                         1.0));
    return 0;
}
