#include "check/checker.hh"

#include <iomanip>
#include <sstream>

#include "common/logging.hh"

namespace specslice::check
{

const char *
divergenceKindName(DivergenceKind kind)
{
    switch (kind) {
      case DivergenceKind::None:
        return "none";
      case DivergenceKind::Pc:
        return "pc";
      case DivergenceKind::UnmappedPc:
        return "unmapped-pc";
      case DivergenceKind::RegWriteback:
        return "register-writeback";
      case DivergenceKind::StoreAddr:
        return "store-address";
      case DivergenceKind::StoreData:
        return "store-data";
      case DivergenceKind::BranchDirection:
        return "branch-direction";
      case DivergenceKind::NextPc:
        return "next-pc";
    }
    return "unknown";
}

RetireChecker::RetireChecker(const isa::Program &program, Addr start_pc,
                             const arch::RegFile &regs,
                             arch::MemoryImage mem, Config cfg)
    : program_(program), cfg_(cfg), refPc_(start_pc), regs_(regs),
      mem_(std::move(mem))
{
    SS_ASSERT(cfg_.historyDepth >= 1, "need at least one ring entry");
}

void
RetireChecker::diverge(DivergenceKind kind, const RetireRecord &rec,
                       std::uint64_t expected, std::uint64_t actual)
{
    div_.kind = kind;
    div_.record = rec;
    div_.expected = expected;
    div_.actual = actual;
    if (cfg_.panicOnDivergence)
        SS_FATAL("architectural divergence at retirement\n", report());
}

void
RetireChecker::onRetire(const RetireRecord &observed)
{
    // First divergence latches: the reference no longer tracks the
    // core, so further comparisons would only produce noise.
    if (diverged() || refHalted_)
        return;

    RetireRecord rec = observed;
    rec.index = ++checked_;
    history_.push_back(rec);
    while (history_.size() > cfg_.historyDepth)
        history_.pop_front();

    if (rec.pc != refPc_) {
        diverge(DivergenceKind::Pc, rec, refPc_, rec.pc);
        return;
    }

    const isa::Instruction *si = program_.fetch(refPc_);
    if (!si) {
        diverge(DivergenceKind::UnmappedPc, rec, refPc_, rec.pc);
        return;
    }

    arch::ExecResult ref =
        arch::execute(*si, refPc_, regs_, mem_, /*allow_stores=*/true);

    if (ref.wroteReg != rec.wroteReg ||
        (ref.wroteReg && ref.value != rec.value)) {
        diverge(DivergenceKind::RegWriteback, rec, ref.value, rec.value);
        return;
    }
    if (si->isStore() && !ref.fault) {
        if (ref.memAddr != rec.storeAddr) {
            diverge(DivergenceKind::StoreAddr, rec, ref.memAddr,
                    rec.storeAddr);
            return;
        }
        if (ref.value != rec.storeData) {
            diverge(DivergenceKind::StoreData, rec, ref.value,
                    rec.storeData);
            return;
        }
    }
    if (si->isCondBranch() && ref.taken != rec.taken) {
        diverge(DivergenceKind::BranchDirection, rec, ref.taken,
                rec.taken);
        return;
    }
    if (ref.nextPc != rec.nextPc) {
        diverge(DivergenceKind::NextPc, rec, ref.nextPc, rec.nextPc);
        return;
    }

    refPc_ = ref.nextPc;
    refHalted_ = ref.halted;
}

std::string
RetireChecker::report() const
{
    if (!diverged())
        return "";

    std::ostringstream os;
    os << std::hex;
    const RetireRecord &r = div_.record;
    os << "first divergence: " << divergenceKindName(div_.kind)
       << " at retired instruction #" << std::dec << r.index
       << " (seq " << r.seq << ") pc 0x" << std::hex << r.pc << "\n";
    if (const isa::Instruction *si = program_.fetch(r.pc))
        os << "  insn: " << si->disassemble() << "\n";
    os << "  expected 0x" << div_.expected << ", core retired 0x"
       << div_.actual << "\n";
    os << "last " << std::dec << history_.size()
       << " retired instructions (oldest first):\n";
    for (const RetireRecord &h : history_) {
        os << "  #" << std::dec << h.index << " seq=" << h.seq
           << " pc=0x" << std::hex << h.pc;
        if (const isa::Instruction *si = program_.fetch(h.pc))
            os << "  " << si->disassemble();
        if (h.wroteReg)
            os << "  [r" << std::dec << unsigned{h.reg} << "=0x"
               << std::hex << h.value << "]";
        if (h.isStore)
            os << "  [*0x" << std::hex << h.storeAddr << "=0x"
               << h.storeData << "]";
        if (h.isCondBranch)
            os << "  [" << (h.taken ? "taken" : "not-taken") << "]";
        if (h.index == r.index)
            os << "  <== diverged";
        os << "\n";
    }
    return os.str();
}

} // namespace specslice::check
