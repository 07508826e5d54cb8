#include "slice/validator.hh"

#include <array>
#include <sstream>

#include "isa/opcodes.hh"

namespace specslice::slice
{

namespace
{

using isa::Instruction;
using isa::instBytes;
using isa::Opcode;

void
error(SliceValidation &v, std::string msg)
{
    v.issues.push_back({SliceIssue::Severity::Error, std::move(msg)});
}

void
warning(SliceValidation &v, std::string msg)
{
    v.issues.push_back({SliceIssue::Severity::Warning, std::move(msg)});
}

std::string
hex(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

} // namespace

std::string
SliceValidation::summary() const
{
    std::ostringstream os;
    for (const SliceIssue &i : issues) {
        os << (i.severity == SliceIssue::Severity::Error ? "error: "
                                                         : "warning: ")
           << i.message << '\n';
    }
    return os.str();
}

SliceValidation
validateSlice(const SliceDescriptor &desc, const isa::Program &program)
{
    SliceValidation v;

    // ---- basic anchors ----
    if (desc.forkPc == invalidAddr) {
        error(v, "slice '" + desc.name + "' has no fork PC");
        return v;
    }
    if (!program.contains(desc.forkPc))
        error(v, "fork PC " + hex(desc.forkPc) +
                     " is not a program instruction");
    if (desc.slicePc == invalidAddr || !program.contains(desc.slicePc)) {
        error(v, "slice entry PC " + hex(desc.slicePc) + " unmapped");
        return v;
    }
    if (desc.staticSize == 0)
        error(v, "staticSize is zero");

    // ---- walk the slice body ----
    Addr slice_end = desc.slicePc + desc.staticSize * instBytes;
    bool saw_terminator = false;
    bool back_edge_in_slice = false;
    std::array<bool, isa::numRegs> written{};
    std::array<bool, isa::numRegs> live_in{};
    for (RegIndex r : desc.liveIns)
        live_in[r] = true;
    std::vector<RegIndex> undeclared;

    for (Addr pc = desc.slicePc; pc < slice_end; pc += instBytes) {
        const Instruction *si = program.fetch(pc);
        if (!si) {
            error(v, "slice body runs off mapped code at " + hex(pc));
            break;
        }
        const isa::OpTraits &t = si->traits();

        if (t.isStore)
            error(v, "slice contains a store at " + hex(pc) +
                         " (slices must not affect architected state)");
        if (t.isIndirect)
            error(v, "slice contains indirect control at " + hex(pc) +
                         " (unsupported in helper threads)");
        if (si->op == Opcode::Halt)
            error(v, "slice contains HALT at " + hex(pc));
        if (si->op == Opcode::SliceEnd)
            saw_terminator = true;

        // Live-in discipline: any register read before the slice
        // writes it must be declared (the fork copies only declared
        // registers; everything else starts as garbage).
        auto check_src = [&](RegIndex r) {
            if (r == isa::regZero || written[r] || live_in[r])
                return;
            bool known = false;
            for (RegIndex u : undeclared)
                known = known || u == r;
            if (!known)
                undeclared.push_back(r);
        };
        if (t.readsRa)
            check_src(si->ra);
        if (t.readsRb)
            check_src(si->rb);
        if (t.readsRc)
            check_src(si->rc);
        if (t.writesRc && si->rc != isa::regZero)
            written[si->rc] = true;

        if (si->hasStaticTarget() && si->target < pc) {
            if (pc == desc.loopBackEdgePc)
                back_edge_in_slice = true;
            if (si->target < desc.slicePc || si->target >= slice_end)
                error(v, "backward branch at " + hex(pc) +
                             " targets outside the slice");
        }
    }

    for (RegIndex r : undeclared)
        error(v, "register r" + std::to_string(unsigned(r)) +
                     " is read before written but not a live-in");
    for (RegIndex r : desc.liveIns) {
        if (r == isa::regZero)
            warning(v, "the zero register is declared live-in");
    }

    // ---- loop annotations ----
    bool has_loop_annotation = desc.maxLoopIters > 0 ||
                               desc.loopBackEdgePc != invalidAddr;
    if (has_loop_annotation) {
        if (desc.maxLoopIters == 0)
            error(v, "loop back-edge declared but maxLoopIters is 0 "
                     "(runaway slice)");
        if (desc.loopBackEdgePc == invalidAddr)
            error(v, "maxLoopIters set but no loop back-edge declared");
        else if (!back_edge_in_slice)
            error(v, "declared back-edge " + hex(desc.loopBackEdgePc) +
                         " is not a backward branch inside the slice");
    } else if (!saw_terminator) {
        warning(v, "loop-free slice without SliceEnd: it will run off "
                   "the end of its code");
    }

    // ---- PGIs and kill points ----
    for (const PgiSpec &p : desc.pgis) {
        const Instruction *pgi = program.fetch(p.sliceInstPc);
        if (!pgi || p.sliceInstPc < desc.slicePc ||
            p.sliceInstPc >= slice_end) {
            error(v, "PGI " + hex(p.sliceInstPc) +
                         " is not inside the slice body");
        } else if (!pgi->traits().writesRc) {
            error(v, "PGI " + hex(p.sliceInstPc) +
                         " computes no value");
        }

        const Instruction *br = program.fetch(p.problemBranchPc);
        if (!br)
            error(v, "problem branch " + hex(p.problemBranchPc) +
                         " unmapped");
        else if (!br->isCondBranch())
            error(v, "problem branch " + hex(p.problemBranchPc) +
                         " is not a conditional branch");

        if (p.sliceKillPc == invalidAddr)
            error(v, "PGI " + hex(p.sliceInstPc) +
                         " has no slice-kill PC (predictions would "
                         "never be deallocated)");
        else if (!program.contains(p.sliceKillPc))
            error(v, "slice-kill PC " + hex(p.sliceKillPc) +
                         " unmapped");

        if (p.loopKillPc != invalidAddr &&
            !program.contains(p.loopKillPc))
            error(v, "loop-kill PC " + hex(p.loopKillPc) + " unmapped");
        if (has_loop_annotation && p.loopKillPc == invalidAddr)
            warning(v, "loop slice PGI " + hex(p.sliceInstPc) +
                           " has no loop-iteration kill: only the "
                           "first prediction can ever be used");
        if (p.loopKillSkipFirst && p.loopKillPc == invalidAddr)
            error(v, "loopKillSkipFirst set without a loop-kill PC");
    }

    if (desc.pgis.empty() && desc.prefetchLoadPcs.empty())
        warning(v, "slice declares neither predictions nor prefetches");

    for (Addr pc : desc.prefetchLoadPcs) {
        const Instruction *si = program.fetch(pc);
        if (!si || !(pc >= desc.slicePc && pc < slice_end))
            error(v, "prefetch PC " + hex(pc) +
                         " is not inside the slice body");
        else if (!si->isLoad())
            error(v, "prefetch PC " + hex(pc) + " is not a load");
    }
    for (Addr pc : desc.coveredBranchPcs) {
        const Instruction *si = program.fetch(pc);
        if (!si || !si->isCondBranch())
            error(v, "covered branch " + hex(pc) +
                         " is not a conditional branch in the program");
    }
    for (Addr pc : desc.coveredLoadPcs) {
        const Instruction *si = program.fetch(pc);
        if (!si || !si->isLoad())
            error(v, "covered load " + hex(pc) +
                         " is not a load in the program");
    }

    return v;
}

unsigned
loopStaticSize(const SliceDescriptor &desc, const isa::Program &program)
{
    const Instruction *br = program.fetch(desc.loopBackEdgePc);
    if (!br || !br->hasStaticTarget() || br->target > desc.loopBackEdgePc)
        return 0;
    return static_cast<unsigned>((desc.loopBackEdgePc - br->target) /
                                 instBytes) +
           1;
}

} // namespace specslice::slice
