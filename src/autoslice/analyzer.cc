#include "autoslice/analyzer.hh"

#include <algorithm>
#include <deque>
#include <sstream>

#include "arch/tracer.hh"
#include "common/logging.hh"

namespace specslice::autoslice
{

namespace
{

using isa::Instruction;

/** Compact per-instruction trace record kept in the window. */
struct Rec
{
    Addr pc;
    const Instruction *inst;
    Addr memAddr;       ///< effective address (mem ops)
    unsigned memSize;   ///< access bytes (mem ops)
    bool wroteReg;
};

/** Source registers of an instruction (excluding the zero reg). */
void
sources(const Instruction &inst, std::vector<RegIndex> &out)
{
    out.clear();
    const isa::OpTraits &t = inst.traits();
    if (t.readsRa && inst.ra != isa::regZero)
        out.push_back(inst.ra);
    if (t.readsRb && inst.rb != isa::regZero)
        out.push_back(inst.rb);
    if (t.readsRc && inst.rc != isa::regZero)
        out.push_back(inst.rc);
}

/** The candidate hoist distances reported per analysis. */
constexpr unsigned candidateDistances[] = {8, 16, 32, 64, 128, 256};

/** Per-instance backward-walk result. */
struct InstanceSlice
{
    unsigned sliceLength = 0;       ///< included dynamic instructions
    unsigned windowLength = 0;
    unsigned dataflowHeight = 0;
    std::vector<Addr> slicePcs;     ///< included PCs (forward order)
    /** Per candidate distance: (fork pc, live-in set, slice length
     *  within that distance). */
    struct AtDistance
    {
        Addr forkPc = invalidAddr;
        std::set<RegIndex> liveIns;
        unsigned sliceLength = 0;
    };
    std::map<unsigned, AtDistance> at;
};

InstanceSlice
walkBackward(const std::deque<Rec> &window, bool follow_memory)
{
    // window.back() is the problem instruction instance itself.
    InstanceSlice out;
    SS_ASSERT(!window.empty(), "empty window");
    out.windowLength = static_cast<unsigned>(window.size()) - 1;

    std::array<bool, isa::numRegs> needed{};
    std::vector<RegIndex> srcs;
    sources(*window.back().inst, srcs);
    for (RegIndex r : srcs)
        needed[r] = true;
    // The problem instruction's own load address feeds it too.
    std::set<std::pair<Addr, unsigned>> needed_mem;
    if (follow_memory && window.back().inst->isLoad() &&
        window.back().memAddr != invalidAddr)
        needed_mem.insert({window.back().memAddr,
                           window.back().memSize});

    std::vector<std::size_t> included;  // indices into window
    auto snapshot = [&](unsigned distance) {
        InstanceSlice::AtDistance at;
        std::size_t idx_from_end = distance + 1;  // +1: skip instance
        if (idx_from_end > window.size())
            return;  // window too short for this distance
        at.forkPc = window[window.size() - idx_from_end].pc;
        for (unsigned r = 0; r < isa::numRegs; ++r)
            if (needed[r])
                at.liveIns.insert(static_cast<RegIndex>(r));
        at.sliceLength = static_cast<unsigned>(included.size());
        out.at.emplace(distance, std::move(at));
    };

    unsigned next_candidate = 0;
    for (std::size_t back = 1; back < window.size(); ++back) {
        // Snapshot live-ins when crossing each candidate distance.
        while (next_candidate < std::size(candidateDistances) &&
               back > candidateDistances[next_candidate]) {
            snapshot(candidateDistances[next_candidate]);
            ++next_candidate;
        }

        const Rec &r = window[window.size() - 1 - back];
        bool include = false;
        if (r.wroteReg && needed[r.inst->rc])
            include = true;
        if (!include && follow_memory && r.inst->isStore() &&
            needed_mem.count({r.memAddr, r.memSize}))
            include = true;
        if (!include)
            continue;

        included.push_back(window.size() - 1 - back);
        if (r.wroteReg)
            needed[r.inst->rc] = false;
        if (r.inst->isStore())
            needed_mem.erase({r.memAddr, r.memSize});
        sources(*r.inst, srcs);
        for (RegIndex s : srcs)
            needed[s] = true;
        if (follow_memory && r.inst->isLoad() &&
            r.memAddr != invalidAddr)
            needed_mem.insert({r.memAddr, r.memSize});
    }
    while (next_candidate < std::size(candidateDistances)) {
        snapshot(candidateDistances[next_candidate]);
        ++next_candidate;
    }

    out.sliceLength = static_cast<unsigned>(included.size());
    std::sort(included.begin(), included.end());
    for (std::size_t idx : included)
        out.slicePcs.push_back(window[idx].pc);

    // Dataflow height: longest register-dependence chain through the
    // included instructions (forward pass).
    std::array<unsigned, isa::numRegs> height{};
    unsigned final_height = 0;
    auto step = [&](const Rec &r) {
        unsigned h = 0;
        sources(*r.inst, srcs);
        for (RegIndex s : srcs)
            h = std::max(h, height[s]);
        ++h;
        if (r.wroteReg)
            height[r.inst->rc] = h;
        return h;
    };
    for (std::size_t idx : included)
        step(window[idx]);
    final_height = step(window.back());
    out.dataflowHeight = final_height;

    // Snapshots' slice lengths were counted from the *youngest* end
    // during the walk, which is what we want: the dynamic slice
    // between a fork at that distance and the problem instruction.
    return out;
}

} // namespace

SliceAnalysis
analyzeProblemInstruction(const isa::Program &program, Addr entry_pc,
                          arch::MemoryImage &mem, Addr problem_pc,
                          const AnalyzerOptions &opts)
{
    SliceAnalysis out;
    out.problemPc = problem_pc;

    std::deque<Rec> window;
    struct DistanceAgg
    {
        std::map<Addr, unsigned> forkPcVotes;
        std::set<RegIndex> liveIns;
        std::uint64_t sliceLenSum = 0;
        unsigned samples = 0;
    };
    std::map<unsigned, DistanceAgg> agg;
    std::uint64_t slice_len_sum = 0, height_sum = 0, window_sum = 0;

    arch::TraceResult traced =
        arch::trace(program, entry_pc, mem, opts.traceInsts,
                    [&](const arch::TraceEvent &ev) {
        Rec r;
        r.pc = ev.pc;
        r.inst = ev.inst;
        r.memAddr = ev.result.memAddr;
        r.memSize = ev.inst->traits().memBytes;
        r.wroteReg = ev.inst->traits().writesRc &&
                     ev.inst->rc != isa::regZero;
        window.push_back(r);
        if (window.size() > opts.windowInsts + 1)
            window.pop_front();

        if (ev.pc != problem_pc ||
            out.instancesAnalyzed >= opts.maxInstances ||
            window.size() < 16)
            return;

        InstanceSlice is = walkBackward(window, opts.followMemory);
        ++out.instancesAnalyzed;
        slice_len_sum += is.sliceLength;
        height_sum += is.dataflowHeight;
        window_sum += is.windowLength;
        for (Addr pc : is.slicePcs)
            out.staticSlice.insert(pc);
        for (const auto &[dist, at] : is.at) {
            DistanceAgg &d = agg[dist];
            ++d.forkPcVotes[at.forkPc];
            d.liveIns.insert(at.liveIns.begin(), at.liveIns.end());
            d.sliceLenSum += at.sliceLength;
            ++d.samples;
        }
    });
    out.traceInsts = traced.count;
    out.traceStop = traced.reason;
    // Halting early is normal (short programs); dying early is not —
    // the candidates below would be computed from a truncated trace.
    if (traced.reason == arch::FfStop::Fault ||
        traced.reason == arch::FfStop::UnmappedPc)
        SS_WARN("slice analysis trace of pc 0x", std::hex, problem_pc,
                std::dec, " ended abnormally (",
                arch::ffStopName(traced.reason), " after ",
                traced.count, " insts at pc 0x", std::hex,
                traced.finalPc, std::dec, ")");

    if (out.instancesAnalyzed == 0)
        return out;

    double n = static_cast<double>(out.instancesAnalyzed);
    out.avgDynamicSliceLength = static_cast<double>(slice_len_sum) / n;
    out.avgDataflowHeight = static_cast<double>(height_sum) / n;
    out.avgWindowLength = static_cast<double>(window_sum) / n;

    for (const auto &[dist, d] : agg) {
        ForkCandidate fc;
        fc.hoistDistance = dist;
        unsigned best = 0;
        for (const auto &[pc, votes] : d.forkPcVotes) {
            if (votes > best) {
                best = votes;
                fc.forkPc = pc;
            }
        }
        fc.instancesAgreeing = best;
        fc.avgDynamicSliceLength =
            d.samples ? static_cast<double>(d.sliceLenSum) / d.samples
                      : 0.0;
        fc.liveIns = d.liveIns;
        out.forkCandidates.push_back(fc);
    }
    return out;
}

std::string
SliceAnalysis::report(const isa::Program &program) const
{
    std::ostringstream os;
    os << "problem instruction 0x" << std::hex << problemPc << std::dec;
    if (const isa::Instruction *si = program.fetch(problemPc))
        os << "  (" << si->disassemble() << ")";
    os << "\n  instances analyzed: " << instancesAnalyzed << '\n';
    if (instancesAnalyzed == 0)
        return os.str();

    os << "  dynamic slice: " << avgDynamicSliceLength
       << " of " << avgWindowLength << " window instructions ("
       << static_cast<int>(sliceDensity() * 100 + 0.5) << "%)\n";
    os << "  dataflow height: " << avgDataflowHeight << '\n';
    os << "  static slice (" << staticSlice.size() << " PCs):\n";
    for (Addr pc : staticSlice) {
        os << "    0x" << std::hex << pc << std::dec;
        if (const isa::Instruction *si = program.fetch(pc))
            os << "  " << si->disassemble();
        os << '\n';
    }
    os << "  fork candidates (Section 3.2 'sweet spots'):\n";
    for (const ForkCandidate &fc : forkCandidates) {
        os << "    distance " << fc.hoistDistance << ": fork @ 0x"
           << std::hex << fc.forkPc << std::dec << " ("
           << fc.instancesAgreeing << "/" << instancesAnalyzed
           << " agree), slice len " << fc.avgDynamicSliceLength
           << ", live-ins {";
        bool first = true;
        for (RegIndex r : fc.liveIns) {
            os << (first ? "" : " ") << 'r' << unsigned(r);
            first = false;
        }
        os << "}\n";
    }
    return os.str();
}

} // namespace specslice::autoslice
