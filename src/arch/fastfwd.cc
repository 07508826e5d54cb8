#include "arch/fastfwd.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.hh"
#include "isa/semantics.hh"

namespace specslice::arch
{

using isa::Opcode;

FastForward::FastForward(const isa::Program &program)
    : program_(program), fingerprint_(fingerprintProgram(program)),
      warmthRing_(warmthDepth), memRing_(memWarmthDepth),
      instRing_(instWarmthDepth)
{
    predecode();
}

void
FastForward::predecode()
{
    const auto &secs = program_.sections();
    if (secs.empty())
        return;
    // isa::Program bounds the span by its own decode array's limit.
    Addr lo = secs.front().base;
    Addr hi = 0;
    for (const isa::CodeSection &s : secs)
        hi = std::max(hi, s.end());
    const Addr span = (hi - lo) / isa::instBytes;

    decodeBase_ = lo;
    Decoded gap;
    gap.op = invalidOp;
    // One sentinel gap entry past the end so falling through the last
    // instruction lands on a decodable "unmapped" slot.
    ops_.assign(static_cast<std::size_t>(span) + 1, gap);

    for (const isa::CodeSection &s : secs) {
        std::uint32_t idx =
            static_cast<std::uint32_t>((s.base - lo) / isa::instBytes);
        for (const isa::Instruction &inst : s.code) {
            Decoded d;
            d.imm = inst.imm;
            d.op = static_cast<std::uint16_t>(inst.op);
            d.ra = inst.ra;
            d.rb = inst.rb;
            d.rc = inst.rc;
            // Taken-path index. exec.cc only redirects to the static
            // target when one exists; a taken transfer without one
            // falls through, so that is the precomputed default.
            d.targetIdx = idx + 1;
            if (inst.hasStaticTarget())
                d.targetIdx = idxOf(inst.target);  // badIdx if outside
            ops_[idx] = d;
            ++idx;
        }
    }
}

std::uint32_t
FastForward::idxOf(Addr pc) const
{
    if (ops_.empty())
        return badIdx;
    const Addr off = pc - decodeBase_;  // wraps huge below decodeBase_
    if (off >= (ops_.size() - 1) * isa::instBytes ||
        off % isa::instBytes != 0)
        return badIdx;
    return static_cast<std::uint32_t>(off / isa::instBytes);
}

Addr
FastForward::pcOf(std::uint32_t idx) const
{
    return decodeBase_ + Addr{idx} * isa::instBytes;
}

void
FastForward::reset(Addr entry_pc)
{
    regs_.reset();
    mem_ = MemoryImage{};
    pc_ = entry_pc;
    executed_ = 0;
    last_ = FfStop::Budget;
    warmthCount_ = 0;
    memCount_ = 0;
    instCount_ = 0;
    lastInstLine_ = invalidAddr;
}

FfStop
FastForward::advance(std::uint64_t max_insts)
{
    if (!runnable())
        return last_;  // sticky: halted/faulted/unmapped stays stopped
    return run(max_insts);
}

FfStop
FastForward::advanceTo(std::uint64_t target_count)
{
    if (target_count <= executed_)
        return last_;
    return advance(target_count - executed_);
}

void
FastForward::recordCond(Addr pc, bool taken)
{
    BranchWarmthRecord &w =
        warmthRing_[warmthCount_++ & (warmthDepth - 1)];
    w.pc = pc;
    w.target = invalidAddr;
    w.kind = WarmthKind::CondBranch;
    w.taken = taken;
}

void
FastForward::recordIndirect(Addr pc, Addr target)
{
    BranchWarmthRecord &w =
        warmthRing_[warmthCount_++ & (warmthDepth - 1)];
    w.pc = pc;
    w.target = target;
    w.kind = WarmthKind::Indirect;
    w.taken = false;
}

std::vector<BranchWarmthRecord>
FastForward::warmth() const
{
    const std::uint64_t cnt =
        std::min<std::uint64_t>(warmthCount_, warmthDepth);
    std::vector<BranchWarmthRecord> out;
    out.reserve(cnt);
    for (std::uint64_t i = warmthCount_ - cnt; i < warmthCount_; ++i)
        out.push_back(warmthRing_[i & (warmthDepth - 1)]);
    return out;
}

std::vector<MemWarmthRecord>
FastForward::memWarmth() const
{
    const std::uint64_t cnt =
        std::min<std::uint64_t>(memCount_, memWarmthDepth);
    std::vector<MemWarmthRecord> out;
    out.reserve(cnt);
    for (std::uint64_t i = memCount_ - cnt; i < memCount_; ++i)
        out.push_back(memRing_[i & (memWarmthDepth - 1)]);
    return out;
}

std::vector<Addr>
FastForward::instWarmth() const
{
    const std::uint64_t cnt =
        std::min<std::uint64_t>(instCount_, instWarmthDepth);
    std::vector<Addr> out;
    out.reserve(cnt);
    for (std::uint64_t i = instCount_ - cnt; i < instCount_; ++i)
        out.push_back(instRing_[i & (instWarmthDepth - 1)]);
    return out;
}

Checkpoint
FastForward::makeCheckpoint() const
{
    Checkpoint c;
    c.programFingerprint = fingerprint_;
    c.instCount = executed_;
    c.pc = pc_;
    c.regs = regs_;
    c.mem = mem_.clone();
    c.warmth = warmth();
    c.memWarmth = memWarmth();
    c.instWarmth = instWarmth();
    return c;
}

void
FastForward::restore(Checkpoint &&ckpt)
{
    if (ckpt.programFingerprint != fingerprint_)
        SS_FATAL("checkpoint/program mismatch: checkpoint fingerprint ",
                 ckpt.programFingerprint, " vs program ", fingerprint_,
                 " (wrong workload, scale, or seed?)");
    regs_ = ckpt.regs;
    mem_ = std::move(ckpt.mem);
    pc_ = ckpt.pc;
    executed_ = ckpt.instCount;
    last_ = FfStop::Budget;
    warmthCount_ = 0;
    for (const BranchWarmthRecord &w : ckpt.warmth)
        warmthRing_[warmthCount_++ & (warmthDepth - 1)] = w;
    memCount_ = 0;
    for (const MemWarmthRecord &m : ckpt.memWarmth)
        memRing_[memCount_++ & (memWarmthDepth - 1)] = m;
    instCount_ = 0;
    lastInstLine_ = invalidAddr;
    for (Addr pc : ckpt.instWarmth)
        recordInstLine(pc);
}

/*
 * The interpreter core. One handler per opcode, compiled as
 * direct-threaded code (GNU computed goto: each handler ends in its
 * own indirect jump, so the branch predictor learns per-handler
 * successor patterns). Each handler specialises isa/semantics.hh's
 * definition of its opcode, as arch::execute does.
 *
 * Counting follows Tracer rules exactly: a halting or faulting
 * instruction is counted, the instruction at an unmapped PC is not,
 * and the budget is checked before each fetch, so a budget stop at an
 * unmapped next-PC reports Budget (the tracer never fetched either).
 */

// Terminate this advance: bank the instruction count, remember where
// and why, and make the reason sticky (Budget re-arms via advance()).
#define SS_FF_STOP(why, at)                                           \
    do {                                                              \
        executed_ += n;                                               \
        pc_ = (at);                                                   \
        last_ = (why);                                                \
        return (why);                                                 \
    } while (0)

#define SS_FF_CASE(name) ff_##name:
#define SS_FF_NEXT()                                                  \
    do {                                                              \
        if (n >= max_insts)                                           \
            SS_FF_STOP(FfStop::Budget, pcOf(idx));                    \
        recordInstLine(pcOf(idx));                                    \
        goto *jumpTable[code[idx].op];                                \
    } while (0)

// Operand shorthands, against the pre-decoded record.
#define D code[idx]
#define RA regs.read(D.ra)
#define RB regs.read(D.rb)
#define WR(v) regs.write(D.rc, (v))
#define STEP()                                                        \
    do {                                                              \
        ++idx;                                                        \
        ++n;                                                          \
        SS_FF_NEXT();                                                 \
    } while (0)

// Redirect to a precomputed taken-path index; badIdx means the static
// target lies outside the decode array, i.e. off the program image.
#define TAKE(tidx)                                                    \
    do {                                                              \
        std::uint32_t t_ = (tidx);                                    \
        ++n;                                                          \
        if (t_ == badIdx) {                                           \
            Addr tgt_ = staticTargetOf(idx);                          \
            if (n >= max_insts)                                       \
                SS_FF_STOP(FfStop::Budget, tgt_);                     \
            SS_FF_STOP(FfStop::UnmappedPc, tgt_);                     \
        }                                                             \
        idx = t_;                                                     \
        SS_FF_NEXT();                                                 \
    } while (0)

#define CBR(cond)                                                     \
    {                                                                 \
        const bool taken_ = (cond);                                   \
        recordCond(pcOf(idx), taken_);                                \
        TAKE(taken_ ? D.targetIdx : idx + 1);                         \
    }

// Indirect transfer to a runtime address.
#define GOIND(next)                                                   \
    do {                                                              \
        const Addr next_ = (next);                                    \
        recordIndirect(pcOf(idx), next_);                             \
        ++n;                                                          \
        const std::uint32_t t_ = idxOf(next_);                        \
        if (t_ == badIdx) {                                           \
            if (n >= max_insts)                                       \
                SS_FF_STOP(FfStop::Budget, next_);                    \
            SS_FF_STOP(FfStop::UnmappedPc, next_);                    \
        }                                                             \
        idx = t_;                                                     \
        SS_FF_NEXT();                                                 \
    } while (0)

// A value opcode: rc = its result from ra and rb or the immediate,
// unless it is a conditional move whose condition fails.
#define VALUE(name)                                                   \
    SS_FF_CASE(name)                                                  \
    {                                                                 \
        constexpr bool imm_ = isa::opTraits(Opcode::name).hasImm;     \
        if (isa::condition<Opcode::name>(RA))                         \
            WR(isa::result<Opcode::name>(                             \
                RA, imm_ ? static_cast<std::uint64_t>(D.imm) : RB));  \
        STEP();                                                       \
    }

// A load, store or prefetch (a load without a destination): the
// fault check, then the access at the opcode's width. A prefetch's
// line would land in the cache, so it warms like a load.
#define MEMORY(name)                                                  \
    SS_FF_CASE(name)                                                  \
    {                                                                 \
        constexpr const isa::OpTraits &t_ =                           \
            isa::opTraits(Opcode::name);                              \
        const Addr ea_ = isa::effectiveAddress(RB, D.imm);            \
        if (MemoryImage::faults(ea_, t_.memBytes)) {                  \
            ++n;                                                      \
            SS_FF_STOP(FfStop::Fault, pcOf(idx));                     \
        }                                                             \
        recordMem(ea_, t_.isStore);                                   \
        if constexpr (t_.isStore)                                     \
            mem.write(ea_, RA, t_.memBytes);                          \
        else if constexpr (t_.writesRc)                               \
            WR(isa::loadResult(t_, mem.read(ea_, t_.memBytes)));      \
        STEP();                                                       \
    }

#define COND_BRANCH(name)                                             \
    SS_FF_CASE(name) CBR(isa::condition<Opcode::name>(RA))

FfStop
FastForward::run(std::uint64_t max_insts)
{
    RegFile &regs = regs_;
    MemoryImage &mem = mem_;
    const Decoded *const code = ops_.data();
    std::uint64_t n = 0;
    std::uint32_t idx = idxOf(pc_);

    if (idx == badIdx) {
        // Already off the image (e.g. a checkpoint taken mid-stop).
        if (max_insts == 0)
            SS_FF_STOP(FfStop::Budget, pc_);
        SS_FF_STOP(FfStop::UnmappedPc, pc_);
    }

    // Must match the isa::Opcode declaration order exactly; the
    // static_assert below pins the enum so silent drift is impossible.
    static const void *const jumpTable[] = {
        &&ff_Add, &&ff_Sub, &&ff_And, &&ff_Or, &&ff_Xor,
        &&ff_Sll, &&ff_Srl, &&ff_Sra,
        &&ff_CmpEq, &&ff_CmpLt, &&ff_CmpLe, &&ff_CmpUlt,
        &&ff_S4Add, &&ff_S8Add,
        &&ff_CmovEq, &&ff_CmovNe, &&ff_CmovLt,
        &&ff_AddI, &&ff_SubI, &&ff_AndI, &&ff_OrI, &&ff_XorI,
        &&ff_SllI, &&ff_SrlI, &&ff_SraI,
        &&ff_CmpEqI, &&ff_CmpLtI, &&ff_CmpLeI, &&ff_CmpUltI,
        &&ff_Ldi,
        &&ff_Mul, &&ff_Div,
        &&ff_FAdd, &&ff_FSub, &&ff_FMul,
        &&ff_FCmpLt, &&ff_FCmpLe, &&ff_FCmpEq,
        &&ff_CvtIF, &&ff_CvtFI,
        &&ff_Ldq, &&ff_Ldl, &&ff_Ldbu,
        &&ff_Stq, &&ff_Stl, &&ff_Stb, &&ff_Prefetch,
        &&ff_Beq, &&ff_Bne, &&ff_Blt, &&ff_Ble, &&ff_Bgt, &&ff_Bge,
        &&ff_Br, &&ff_Call, &&ff_Jmp, &&ff_CallR, &&ff_Ret,
        &&ff_Nop, &&ff_Halt, &&ff_SliceEnd,
        &&ff_Gap,
    };
    static_assert(static_cast<unsigned>(Opcode::NumOpcodes) == 61,
                  "opcode added/removed: update fastfwd jump table");
    static_assert(std::size(jumpTable) ==
                  static_cast<std::size_t>(Opcode::NumOpcodes) + 1);

    SS_FF_NEXT();
    {
        SS_ISA_VALUE_OPCODES(VALUE)
        MEMORY(Ldq) MEMORY(Ldl) MEMORY(Ldbu)
        MEMORY(Stq) MEMORY(Stl) MEMORY(Stb)
        MEMORY(Prefetch)

        // Control.
        SS_ISA_COND_BRANCH_OPCODES(COND_BRANCH)
        SS_FF_CASE(Br)  { TAKE(D.targetIdx); }
        SS_FF_CASE(Call)
        {
            WR(pcOf(idx) + isa::instBytes);
            TAKE(D.targetIdx);
        }
        SS_FF_CASE(Jmp) { GOIND(RA); }
        SS_FF_CASE(CallR)
        {
            // Read the target before the link write: rc may alias rb.
            const Addr next = RB;
            WR(pcOf(idx) + isa::instBytes);
            GOIND(next);
        }
        SS_FF_CASE(Ret) { GOIND(RA); }

        // Misc.
        SS_FF_CASE(Nop) { STEP(); }
        SS_FF_CASE(Halt)
        {
            ++n;
            SS_FF_STOP(FfStop::Halted, pcOf(idx));
        }
        SS_FF_CASE(SliceEnd)
        {
            // In the main architectural stream a SliceEnd is inert
            // (only helper threads terminate on it) — fall through,
            // exactly as the Tracer does.
            STEP();
        }

        SS_FF_CASE(Gap)
        {
            // Inter-section gap or the end sentinel: this PC holds no
            // instruction, so it is not counted (Tracer fetch failure).
            SS_FF_STOP(FfStop::UnmappedPc, pcOf(idx));
        }
    }
}

#undef SS_FF_STOP
#undef SS_FF_CASE
#undef SS_FF_NEXT
#undef D
#undef RA
#undef RB
#undef WR
#undef STEP
#undef TAKE
#undef CBR
#undef GOIND
#undef VALUE
#undef MEMORY
#undef COND_BRANCH

Addr
FastForward::staticTargetOf(std::uint32_t idx) const
{
    const isa::Instruction *inst = program_.fetch(pcOf(idx));
    SS_ASSERT(inst, "staticTargetOf on a gap slot");
    return inst->target;
}

} // namespace specslice::arch
