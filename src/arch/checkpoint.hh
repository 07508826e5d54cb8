/**
 * @file
 * Versioned architectural checkpoints: everything needed to resume a
 * functionally fast-forwarded program — memory pages, register file,
 * PC, instruction count — plus a bounded log of recent branch outcomes
 * so a timing run started from the checkpoint can warm its branch
 * predictor the same way an uninterrupted run would have.
 *
 * The on-disk format is binary, little-endian regardless of host, and
 * carries a magic/version header plus a fingerprint of the static
 * program image, so a checkpoint can never be silently restored into
 * the wrong workload (or the right workload built at a different
 * scale/seed).
 */

#ifndef SPECSLICE_ARCH_CHECKPOINT_HH
#define SPECSLICE_ARCH_CHECKPOINT_HH

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "arch/memimg.hh"
#include "arch/regfile.hh"
#include "common/types.hh"
#include "isa/program.hh"

namespace specslice::arch
{

/** On-disk format version; bump on any layout change. Only this
 *  version loads: checkpoints are temporary files, never kept in
 *  the repository.
 *  v2: appended the memory-access warmth log (cache warm-up replay).
 *  v3: appended the instruction-line warmth log (I-cache warm-up
 *      replay) after the page section. */
constexpr std::uint32_t checkpointVersion = 3;

/** Which predictor a warmth record trains. */
enum class WarmthKind : std::uint8_t
{
    CondBranch = 0,  ///< (pc, taken)
    Indirect = 1,    ///< (pc, target)
};

/** One branch outcome recorded during fast-forward for predictor
 *  warm-up replay. */
struct BranchWarmthRecord
{
    Addr pc = 0;
    Addr target = invalidAddr;  ///< Indirect records only
    WarmthKind kind = WarmthKind::CondBranch;
    bool taken = false;         ///< CondBranch records only
};

/** One data-memory access recorded during fast-forward for cache
 *  warm-up replay (line granularity is the consumer's business). */
struct MemWarmthRecord
{
    Addr addr = 0;
    bool isStore = false;
};

/** A complete architectural snapshot at an instruction boundary: what
 *  every detailed run starts from (see sim::Simulator). */
struct Checkpoint
{
    std::uint32_t version = checkpointVersion;
    /** Fingerprint of the program this snapshot belongs to. */
    std::uint64_t programFingerprint = 0;
    /** Instructions executed from the entry point to this snapshot. */
    std::uint64_t instCount = 0;
    /** Next PC to execute. */
    Addr pc = invalidAddr;
    RegFile regs;
    /** Recent branch outcomes, oldest first (bounded ring). */
    std::vector<BranchWarmthRecord> warmth;
    /** Recent data accesses, oldest first (bounded ring). */
    std::vector<MemWarmthRecord> memWarmth;
    /** Recent executed instruction addresses, line-deduplicated,
     *  oldest first (bounded ring). */
    std::vector<Addr> instWarmth;
    MemoryImage mem;
};

/**
 * FNV-1a over every section's base, length and instruction fields.
 * Identifies the static code image: two workloads (or two scales of
 * one workload) collide only if their code is byte-identical.
 */
std::uint64_t fingerprintProgram(const isa::Program &program);

/** Serialize to a stream. @return false on write failure. */
bool saveCheckpoint(const Checkpoint &c, std::ostream &os);

/** Serialize to a file. @return false and set error on failure. */
bool saveCheckpointFile(const Checkpoint &c, const std::string &path,
                        std::string &error);

/**
 * Parse a checkpoint. Returns nullopt and sets error on truncation,
 * bad magic, or an unsupported version. Fingerprint validation against
 * a concrete program is the caller's job (restoreCheckpoint /
 * FastForward::restore).
 */
std::optional<Checkpoint> loadCheckpoint(std::istream &is,
                                         std::string &error);

/** Load from a file. @return nullopt and set error on failure. */
std::optional<Checkpoint> loadCheckpointFile(const std::string &path,
                                             std::string &error);

} // namespace specslice::arch

#endif // SPECSLICE_ARCH_CHECKPOINT_HH
