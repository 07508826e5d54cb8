/**
 * @file
 * The functional fast-forward engine: a pre-decoded, threaded-dispatch
 * interpreter for the zsr ISA. Its handlers specialise the same
 * isa/semantics.hh definitions arch::execute uses (and it is tested
 * bit-identical to arch::trace on the kernels and on every opcode),
 * but it skips per-step ExecResult construction, trait lookups, and
 * program.fetch hashing by resolving every static instruction to a
 * dense decode record once up front. This is the raw
 * speed lever the paper-scale experiments sit on: the timing core
 * retires ~0.5M insts/sec, the fast-forward engine targets >=50M, so
 * 100M-instruction regions become reachable by skipping to them
 * functionally and simulating only sampled windows in detail.
 *
 * While fast-forwarding, the engine records recent conditional and
 * indirect branch outcomes into a bounded ring; a timing run started
 * from the resulting state replays them into its branch predictor so
 * the sampled region does not start with an artificially cold front
 * end. A second, deeper ring records recent data-memory accesses for
 * the same reason: replaying them into the cache hierarchy installs
 * the working set a real run would have resident, which matters far
 * more than branch state (a cold 2MB L2 takes hundreds of thousands
 * of instructions to warm naturally). (The return-address stack and
 * the slice-prediction correlator are deliberately NOT warmed: both
 * drain/refill within tens of instructions, and region warm-up covers
 * them.)
 */

#ifndef SPECSLICE_ARCH_FASTFWD_HH
#define SPECSLICE_ARCH_FASTFWD_HH

#include <cstdint>
#include <vector>

#include "arch/checkpoint.hh"
#include "arch/memimg.hh"
#include "arch/regfile.hh"
#include "arch/tracer.hh"
#include "common/types.hh"
#include "isa/program.hh"

namespace specslice::arch
{

class FastForward
{
  public:
    /** Branch outcomes retained for predictor warm-up (power of 2). */
    static constexpr std::size_t warmthDepth = 4096;

    /** Data accesses retained for cache warm-up (power of 2). Sized
     *  to cover the 2MB L2: 128K accesses touch at least as many
     *  lines as the hierarchy holds unless the stream is pathological
     *  re-reference of one line. */
    static constexpr std::size_t memWarmthDepth = std::size_t{1} << 17;

    /** Executed-instruction lines retained for I-cache warm-up
     *  (power of 2). 4096 distinct 64-byte lines cover 256KB of code,
     *  4x the 64KB L1I. */
    static constexpr std::size_t instWarmthDepth = 4096;

    /** I-side recording granularity. Fixed rather than taken from
     *  MemConfig: the replay consumer maps the recorded PCs onto its
     *  own line size, so this only controls dedup density. */
    static constexpr Addr instLineBytes = 64;

    /** Pre-decodes the program (which must outlive the engine). */
    explicit FastForward(const isa::Program &program);

    /** (Re)start from entry_pc with zeroed registers and empty memory.
     *  The caller then populates mem() with the workload's image. */
    void reset(Addr entry_pc);

    /**
     * Execute up to max_insts further instructions.
     * @return why execution stopped. Halted/Fault/UnmappedPc are
     *         sticky: further advances return the same stop without
     *         executing anything.
     */
    FfStop advance(std::uint64_t max_insts);

    /** Advance until executed() == target_count (no-op if already
     *  there or past). */
    FfStop advanceTo(std::uint64_t target_count);

    /** Instructions executed since reset()/restore(). */
    std::uint64_t executed() const { return executed_; }

    /** Next PC (Budget), or the halting/faulting/unmapped PC. */
    Addr pc() const { return pc_; }

    /** True until a sticky stop (halt/fault/unmapped) is hit. */
    bool runnable() const { return last_ == FfStop::Budget; }

    FfStop lastStop() const { return last_; }

    MemoryImage &mem() { return mem_; }
    const MemoryImage &mem() const { return mem_; }
    const RegFile &regs() const { return regs_; }

    /** The retained branch-outcome log, oldest first. */
    std::vector<BranchWarmthRecord> warmth() const;

    /** The retained data-access log, oldest first. */
    std::vector<MemWarmthRecord> memWarmth() const;

    /** The retained executed-instruction-line log (one PC per line
     *  transition), oldest first. */
    std::vector<Addr> instWarmth() const;

    /** Snapshot the complete architectural state. */
    Checkpoint makeCheckpoint() const;

    /**
     * Resume from a checkpoint, taking its memory image rather than
     * copying it. Fatal if the checkpoint's program fingerprint does
     * not match this engine's program — restoring into the wrong
     * workload must never proceed silently.
     */
    void restore(Checkpoint &&ckpt);

    /** This program's fingerprint (cached at construction). */
    std::uint64_t programFingerprint() const { return fingerprint_; }

  private:
    /** Dense decode record; 16 bytes so four fit a cache line. */
    struct Decoded
    {
        std::int32_t imm = 0;
        /** Flat index of the static branch target (badIdx = the
         *  target lies outside the decode array). */
        std::uint32_t targetIdx = 0;
        std::uint16_t op = 0;  ///< isa::Opcode, or invalidOp in gaps
        std::uint8_t ra = 0, rb = 0, rc = 0;
        std::uint8_t pad = 0;
    };
    static constexpr std::uint32_t badIdx = ~std::uint32_t{0};
    static constexpr std::uint16_t invalidOp =
        static_cast<std::uint16_t>(isa::Opcode::NumOpcodes);

    void predecode();
    /** Flat index for pc, or badIdx if outside/misaligned. */
    std::uint32_t idxOf(Addr pc) const;
    Addr pcOf(std::uint32_t idx) const;
    /** Static transfer target of the instruction at idx (rare path:
     *  only consulted when the target lies outside the decode array). */
    Addr staticTargetOf(std::uint32_t idx) const;
    /** Interpreter core over the pre-decoded array. */
    FfStop run(std::uint64_t max_insts);
    void recordCond(Addr pc, bool taken);
    void recordIndirect(Addr pc, Addr target);

    /** Hot path (every load/store): keep inline. */
    void
    recordMem(Addr addr, bool is_store)
    {
        MemWarmthRecord &m =
            memRing_[memCount_++ & (memWarmthDepth - 1)];
        m.addr = addr;
        m.isStore = is_store;
    }

    /** Hot path (every instruction): one shift + compare when the
     *  fetch stream stays on its current line, a ring store when it
     *  leaves it. */
    void
    recordInstLine(Addr pc)
    {
        const Addr line = pc / instLineBytes;
        if (line == lastInstLine_)
            return;
        lastInstLine_ = line;
        instRing_[instCount_++ & (instWarmthDepth - 1)] = pc;
    }

    const isa::Program &program_;
    std::uint64_t fingerprint_;
    std::vector<Decoded> ops_;
    Addr decodeBase_ = 0;

    // Architectural state.
    RegFile regs_;
    MemoryImage mem_;
    Addr pc_ = invalidAddr;
    std::uint64_t executed_ = 0;
    FfStop last_ = FfStop::Budget;

    // Branch-outcome ring (bounded; index masked by warmthDepth-1).
    std::vector<BranchWarmthRecord> warmthRing_;
    std::uint64_t warmthCount_ = 0;

    // Data-access ring (bounded; index masked by memWarmthDepth-1).
    std::vector<MemWarmthRecord> memRing_;
    std::uint64_t memCount_ = 0;

    // Instruction-line ring (bounded; masked by instWarmthDepth-1).
    std::vector<Addr> instRing_;
    std::uint64_t instCount_ = 0;
    Addr lastInstLine_ = invalidAddr;
};

} // namespace specslice::arch

#endif // SPECSLICE_ARCH_FASTFWD_HH
