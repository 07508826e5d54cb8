/**
 * @file
 * gap: the GAP computer-algebra kernel scans heterogeneous "bags"
 * (lists of tagged objects). Each element is type-tested by a chain of
 * three data-dependent branches before being accumulated; the bag
 * spans several megabytes, so the element loads also miss. The slice
 * walks the list ahead, prefetching each element and generating three
 * predictions per element (Table 3's gap row: 3 predictions in the
 * loop, 85-iteration limit; Table 4: about half the benefit from
 * loads).
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
constexpr std::int32_t gHeadBase = 16;
constexpr std::int32_t gSink = 24;

// Element: { next, type, val } + pad (32 bytes).
constexpr std::int32_t eNext = 0;
constexpr std::int32_t eType = 8;
constexpr std::int32_t eVal = 16;
constexpr unsigned elemSize = 32;

constexpr std::uint64_t numElems = 131'072;  ///< 4 MB of elements
constexpr std::uint64_t numBags = 4096;

} // namespace

sim::Workload
buildGap(const Params &p)
{
    sim::Workload wl;
    wl.name = "gap";
    wl.scale = p.scale;

    // ~14 instructions per element, ~12 elements per bag.
    std::uint64_t scans = std::max<std::uint64_t>(1, p.scale / 200);

    isa::Assembler as(mainCodeBase);
    as.label("start");
    as.ldi64(regGp, globalsBase);

    as.label("scan_loop");
    // Pick a pseudo-random bag.
    as.ldq(5, regGp, gRngState);
    as.srli(6, 5, 12);
    as.xor_(5, 5, 6);
    as.slli(6, 5, 25);
    as.xor_(5, 5, 6);
    as.srli(6, 5, 27);
    as.xor_(5, 5, 6);
    as.stq(5, regGp, gRngState);
    as.andi(6, 5, numBags - 1);
    as.ldq(7, regGp, gHeadBase);
    as.s8add(8, 6, 7);
    as.ldq(21, 8, 0);             // r21 = bag head (slice live-in)

    // Filler bookkeeping.
    for (int i = 0; i < 6; ++i) {
        as.addi(10, 10, 9 + i);
        as.slli(9, 10, 1);
        as.xor_(10, 10, 9);
    }
    as.stq(10, regGp, gSink);

    as.call("scan_bag");

    as.ldq(2, regGp, gRemaining);
    as.subi(2, 2, 1);
    as.stq(2, regGp, gRemaining);
    as.bgt(2, "scan_loop");
    as.halt();

    as.label("scan_bag");         // << fork PC
    as.ldi(25, 0);
    as.mov(14, 21);               // e = head
    as.beq(14, "scan_done");
    as.label("elem_loop");
    as.ldq(15, 14, eType);        // e->type       << problem load
    as.ldq(16, 14, eVal);         // e->val
    as.andi(17, 15, 1);
    as.label("problem_branch1");
    as.beq(17, "not_int");        // << type test 1 (unbiased)
    as.add(25, 25, 16);
    as.label("not_int");
    as.andi(18, 15, 2);
    as.label("problem_branch2");
    as.beq(18, "not_list");       // << type test 2 (unbiased)
    as.sub(25, 25, 16);
    as.label("not_list");
    as.cmplti(19, 16, 500);
    as.label("problem_branch3");
    as.beq(19, "big_val");        // << value test (unbiased)
    as.addi(25, 25, 1);
    as.label("big_val");
    as.label("elem_tail");        // << loop-iteration kill PC
    as.ldq(14, 14, eNext);        // e = e->next
    as.bne(14, "elem_loop");
    as.label("scan_done");        // << slice kill PC
    as.stq(25, regGp, gSink);
    as.ret();

    isa::CodeSection main_sec = as.finish();
    auto sym = as.symbols();

    // Slice: 3 PGIs + 1 prefetching load pair per element.
    isa::Assembler sl(sliceCodeBase);
    sl.label("slice");
    sl.mov(14, 21);
    sl.label("slice_loop");
    sl.label("slice_pref");
    sl.ldq(15, 14, eType);        // prefetches the element line
    sl.ldq(16, 14, eVal);
    sl.label("slice_pgi1");
    sl.andi(regZero, 15, 1);
    sl.label("slice_pgi2");
    sl.andi(regZero, 15, 2);
    sl.label("slice_pgi3");
    sl.cmplti(regZero, 16, 500);
    sl.ldq(14, 14, eNext);        // null terminates via fault
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
    sd.name = "gap_scan";
    sd.forkPc = sym.at("scan_bag");
    sd.slicePc = ssym.at("slice");
    sd.liveIns = {21};
    sd.maxLoopIters = 85;
    sd.loopBackEdgePc = ssym.at("slice_backedge");
    sd.staticSize = static_cast<unsigned>(slice_sec.code.size());

    slice::PgiSpec pgi1;
    pgi1.sliceInstPc = ssym.at("slice_pgi1");
    pgi1.problemBranchPc = sym.at("problem_branch1");
    pgi1.invert = true;  // beq taken iff (type & 1) == 0
    pgi1.loopKillPc = sym.at("elem_tail");
    pgi1.sliceKillPc = sym.at("scan_done");
    slice::PgiSpec pgi2 = pgi1;
    pgi2.sliceInstPc = ssym.at("slice_pgi2");
    pgi2.problemBranchPc = sym.at("problem_branch2");
    slice::PgiSpec pgi3 = pgi1;
    pgi3.sliceInstPc = ssym.at("slice_pgi3");
    pgi3.problemBranchPc = sym.at("problem_branch3");
    sd.pgis = {pgi1, pgi2, pgi3};

    sd.coveredBranchPcs = {sym.at("problem_branch1"),
                           sym.at("problem_branch2"),
                           sym.at("problem_branch3")};
    Addr el = sym.at("elem_loop");
    sd.coveredLoadPcs = {el, el + isa::instBytes};
    sd.prefetchLoadPcs = {ssym.at("slice_pref"),
                          ssym.at("slice_pref") + isa::instBytes};
    wl.slices = {sd};

    std::uint64_t seed = p.seed;
    wl.initMemory = [scans, seed](arch::MemoryImage &mem) {
        Rng rng(seed * 0x8cb92ba72f3d8dd7ull + 0x6a09e667f3bcc909ull);

        const Addr elems = dataBase3;    // 4 MB region
        const Addr heads = dataBase;     // bag head pointers

        // Scatter elements; chain them into bags of geometric length
        // (average ~12, capped at 80 < the 85-iteration limit).
        std::vector<std::uint32_t> perm(numElems);
        for (std::uint64_t i = 0; i < numElems; ++i)
            perm[i] = static_cast<std::uint32_t>(i);
        for (std::uint64_t i = numElems - 1; i >= 1; --i) {
            std::uint64_t j = rng.below(i + 1);
            std::swap(perm[i], perm[j]);
        }

        std::uint64_t next_elem = 0;
        for (std::uint64_t b = 0; b < numBags; ++b) {
            unsigned len = 1;
            while (len < 80 && rng.chance(11, 12))
                ++len;
            Addr head = 0;
            for (unsigned k = 0; k < len && next_elem < numElems; ++k) {
                Addr e = elems +
                         static_cast<Addr>(perm[next_elem]) * elemSize;
                ++next_elem;
                mem.writeQ(e + eNext, head);
                mem.writeQ(e + eType, rng.below(8));
                mem.writeQ(e + eVal, rng.below(1000));
                head = e;
            }
            if (head == 0) {
                // Ran out of elements: reuse an earlier bag's head.
                head = mem.readQ(heads + (b % (b ? b : 1)) * 8);
            }
            mem.writeQ(heads + b * 8, head);
        }

        mem.writeQ(globalsBase + gRemaining, scans);
        mem.writeQ(globalsBase + gRngState, seed | 0x800001);
        mem.writeQ(globalsBase + gHeadBase, heads);
    };

    return wl;
}

} // namespace specslice::workloads
