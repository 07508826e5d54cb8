/**
 * @file
 * perl: hash-table lookups with short collision chains. The hash
 * itself is a few cheap mixing operations (unlike parser's 50+
 * instruction key generation, Section 6.2), so the slice can replicate
 * it, prefetch the bucket, and predict the first key-comparison
 * branch. Benefits are moderate (Table 4's perl row: 35 % of
 * mispredictions and 30 % of misses removed).
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
constexpr std::int32_t gTableBase = 16;
constexpr std::int32_t gSink = 24;

// Entry: { next, key, value } (32 bytes).
constexpr std::int32_t eNext = 0;
constexpr std::int32_t eKey = 8;
constexpr std::int32_t eValue = 16;
constexpr unsigned entrySize = 32;

constexpr std::uint64_t numBuckets = 1u << 18;  ///< 2 MB of heads
constexpr std::uint64_t numEntries = 1u << 18;  ///< load factor 1.0

} // namespace

sim::Workload
buildPerl(const Params &p)
{
    sim::Workload wl;
    wl.name = "perl";
    wl.scale = p.scale;

    // ~65 dynamic instructions per lookup.
    std::uint64_t lookups = std::max<std::uint64_t>(1, p.scale / 65);

    isa::Assembler as(mainCodeBase);
    as.label("start");
    as.ldi64(regGp, globalsBase);

    as.label("op_loop");
    as.ldq(5, regGp, gRngState);
    as.srli(6, 5, 12);
    as.xor_(5, 5, 6);
    as.slli(6, 5, 25);
    as.xor_(5, 5, 6);
    as.srli(6, 5, 27);
    as.xor_(5, 5, 6);
    as.stq(5, regGp, gRngState);
    as.andi(21, 5, (1 << 20) - 1);  // r21 = key (slice live-in)

    as.label("op_dispatch");        // << fork PC (hoisted above the
                                    //    interpreter work: ~45 dynamic
                                    //    instructions of lead)
    // Interpreter-ish filler around the lookup.
    for (int i = 0; i < 12; ++i) {
        as.addi(10, 10, 13 + i);
        as.slli(11, 10, 2);
        as.xor_(10, 10, 11);
    }
    as.stq(10, regGp, gSink);

    as.call("hv_fetch");

    as.ldq(2, regGp, gRemaining);
    as.subi(2, 2, 1);
    as.stq(2, regGp, gRemaining);
    as.bgt(2, "op_loop");
    as.halt();

    as.label("hv_fetch");
    // Cheap hash: h = ((key * 31) ^ (key >> 7)) & (buckets - 1)
    as.slli(7, 21, 5);
    as.sub(7, 7, 21);             // key * 31
    as.srli(8, 21, 7);
    as.xor_(7, 7, 8);
    as.andi(7, 7, numBuckets - 1);
    as.ldq(9, regGp, gTableBase);
    as.s8add(10, 7, 9);
    as.ldq(14, 10, 0);            // bucket head   << problem load
    as.beq(14, "not_found");
    as.label("chain_loop");
    as.ldq(15, 14, eKey);         // entry->key    << problem load
    as.cmpeq(16, 15, 21);
    as.label("problem_branch");
    as.bne(16, "found");          // << key match (unbiased)
    as.label("chain_next");       // << loop-iteration kill PC
    as.ldq(14, 14, eNext);
    as.bne(14, "chain_loop");
    as.label("not_found");
    as.br("fetch_done");
    as.label("found");
    as.ldq(17, 14, eValue);
    as.stq(17, regGp, gSink);
    as.label("fetch_done");       // << slice kill PC
    as.ret();

    isa::CodeSection main_sec = as.finish();
    auto sym = as.symbols();

    // Slice: replicate the hash, prefetch the bucket, predict the
    // first key comparisons.
    isa::Assembler sl(sliceCodeBase);
    sl.label("slice");
    sl.slli(7, 21, 5);
    sl.sub(7, 7, 21);
    sl.srli(8, 21, 7);
    sl.xor_(7, 7, 8);
    sl.andi(7, 7, numBuckets - 1);
    sl.ldq(9, regGp, gTableBase);
    sl.s8add(10, 7, 9);
    sl.label("slice_pref");
    sl.ldq(14, 10, 0);            // prefetch bucket head
    sl.label("slice_loop");
    sl.label("slice_pref2");
    sl.ldq(15, 14, eKey);         // prefetch entry
    sl.label("slice_pgi");
    sl.cmpeq(regZero, 15, 21);    // PGI
    sl.ldq(14, 14, eNext);        // null deref terminates
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
    sd.name = "perl_hv_fetch";
    sd.forkPc = sym.at("op_dispatch");
    sd.slicePc = ssym.at("slice");
    sd.liveIns = {21, regGp};
    sd.maxLoopIters = 6;
    sd.loopBackEdgePc = ssym.at("slice_backedge");
    sd.staticSize = static_cast<unsigned>(slice_sec.code.size());

    slice::PgiSpec pgi;
    pgi.sliceInstPc = ssym.at("slice_pgi");
    pgi.problemBranchPc = sym.at("problem_branch");
    pgi.invert = false;  // bne taken iff keys equal
    pgi.loopKillPc = sym.at("chain_next");
    pgi.sliceKillPc = sym.at("fetch_done");
    sd.pgis = {pgi};

    sd.coveredBranchPcs = {sym.at("problem_branch")};
    sd.coveredLoadPcs = {sym.at("hv_fetch") + 7 * isa::instBytes,
                         sym.at("chain_loop")};
    sd.prefetchLoadPcs = {ssym.at("slice_pref"),
                          ssym.at("slice_pref2")};
    wl.slices = {sd};

    std::uint64_t seed = p.seed;
    wl.initMemory = [lookups, seed](arch::MemoryImage &mem) {
        Rng rng(seed * 0xa0761d6478bd642full + 0xe7037ed1a0b428dbull);

        const Addr table = dataBase;     // bucket heads
        const Addr pool = dataBase3;     // entries

        // Keys are drawn from a 20-bit space; entries hold half of the
        // looked-up keys so the match branch stays unbiased-ish.
        for (std::uint64_t i = 0; i < numEntries; ++i) {
            std::uint64_t key = rng.next() & ((1 << 20) - 1);
            std::uint64_t h = ((key * 31) ^ (key >> 7)) &
                              (numBuckets - 1);
            Addr e = pool + i * entrySize;
            Addr head = mem.readQ(table + h * 8);
            mem.writeQ(e + eNext, head);
            mem.writeQ(e + eKey, key);
            mem.writeQ(e + eValue, rng.below(100000));
            mem.writeQ(table + h * 8, e);
        }

        mem.writeQ(globalsBase + gRemaining, lookups);
        mem.writeQ(globalsBase + gRngState, seed | 0x8000001);
        mem.writeQ(globalsBase + gTableBase, table);
    };

    return wl;
}

} // namespace specslice::workloads
