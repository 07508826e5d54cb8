/**
 * @file
 * Differential-correctness checking for the SMT core (gem5 CheckerCPU
 * style): a fast in-order functional reference interpreter for the
 * `zsr` ISA co-simulates with the timing core. At every main-thread
 * retirement the core reports what it retired (PC, destination
 * register writeback, store address/data, branch direction); the
 * checker steps its own architectural state one instruction with
 * arch::execute and compares. The first divergence is latched with a
 * ring of the last N retired instructions so the failure can be
 * localised to one dynamic instruction.
 *
 * The checker is pure observation: it never feeds anything back into
 * the timing model, so an attached checker cannot change simulation
 * results.
 */

#ifndef SPECSLICE_CHECK_CHECKER_HH
#define SPECSLICE_CHECK_CHECKER_HH

#include <cstdint>
#include <string>

#include "arch/exec.hh"
#include "arch/memimg.hh"
#include "arch/regfile.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "isa/program.hh"

namespace specslice::check
{

/** What the timing core observed at one main-thread retirement. */
struct RetireRecord
{
    SeqNum seq = invalidSeqNum;
    Addr pc = invalidAddr;
    bool wroteReg = false;       ///< architectural register writeback
    RegIndex reg = 0;            ///< destination register (wroteReg)
    std::uint64_t value = 0;     ///< writeback value (wroteReg)
    bool isStore = false;
    Addr storeAddr = invalidAddr;
    std::uint64_t storeData = 0; ///< truncated to the store width
    bool isCondBranch = false;
    bool taken = false;          ///< resolved direction (isCondBranch)
    Addr nextPc = invalidAddr;   ///< architectural successor PC
    /** 1-based retirement index, filled in by the checker. */
    std::uint64_t index = 0;
};

/** Which architectural fact disagreed first. */
enum class DivergenceKind
{
    None,
    Pc,            ///< retired PC != reference PC
    UnmappedPc,    ///< reference PC decodes to no instruction
    RegWriteback,  ///< destination register value (or write/no-write)
    StoreAddr,
    StoreData,
    BranchDirection,
    NextPc,
};

const char *divergenceKindName(DivergenceKind kind);

/** The latched first divergence. */
struct Divergence
{
    DivergenceKind kind = DivergenceKind::None;
    RetireRecord record;          ///< the diverging retirement
    std::uint64_t expected = 0;   ///< reference value
    std::uint64_t actual = 0;     ///< value the core retired
};

struct CheckerConfig
{
    /** Retired-instruction ring kept for the divergence report. */
    unsigned historyDepth = 16;
    /** SS_FATAL with the full report at the first divergence. The
     *  unit tests turn it off to latch the divergence and inspect
     *  divergence(). */
    bool panicOnDivergence = true;
};

/**
 * The retirement-time architectural checker. One instance checks one
 * run (one start PC, register file and memory image); parallel sweeps
 * give each job its own instance.
 */
class RetireChecker
{
  public:
    using Config = CheckerConfig;

    /**
     * Start the reference from a copy of the checked run's start: the
     * timing core must begin from the same pc, registers and memory.
     * @param program the static code image (shared, must outlive us)
     */
    RetireChecker(const isa::Program &program, Addr start_pc,
                  const arch::RegFile &regs, arch::MemoryImage mem,
                  Config cfg = {});

    /** Check one main-thread retirement against the reference. */
    void onRetire(const RetireRecord &observed);

    bool diverged() const { return div_.kind != DivergenceKind::None; }
    const Divergence &divergence() const { return div_; }

    /** Retirements checked (including the diverging one). */
    std::uint64_t checkedCount() const { return checked_; }

    /** Reference state peeks (tests). */
    Addr refPc() const { return refPc_; }
    const arch::RegFile &refRegs() const { return regs_; }

    /**
     * Human-readable first-divergence report: what disagreed, the
     * expected/actual values, and the last historyDepth retired
     * instructions with disassembly. Empty when !diverged().
     */
    std::string report() const;

  private:
    void diverge(DivergenceKind kind, const RetireRecord &rec,
                 std::uint64_t expected, std::uint64_t actual);

    const isa::Program &program_;
    Config cfg_;

    // Reference architectural state.
    Addr refPc_;
    bool refHalted_ = false;
    arch::RegFile regs_;
    arch::MemoryImage mem_;

    // Checking state.
    std::uint64_t checked_ = 0;
    RingQueue<RetireRecord> history_;
    Divergence div_;
};

} // namespace specslice::check

#endif // SPECSLICE_CHECK_CHECKER_HH
