/**
 * @file
 * The `sstr` trace format: the retired-instruction record stream of
 * one workload execution, compact enough to stream millions of
 * records through the in-order predictor replay (specslice_replay).
 *
 * # What a trace holds
 *
 * A header that names the workload, and the records. The workload
 * itself is not in the file: workloads::buildWorkload(name, {scale,
 * seed}) rebuilds it from the header, and the header's program
 * fingerprint and entry PC identify the program that was traced
 * (verifyTraceFidelity refuses a rebuilt workload whose name, scale
 * or fingerprint differs).
 * The timing core's numbers cannot come from a record stream — it
 * predicts at fetch, trains at completion and fetches real wrong-path
 * instructions — so they come from simulating the named workload, as
 * specslice_verify does.
 *
 * # Layout (all integers little-endian)
 *
 *   header:
 *     u8[4]  magic       "sstr"
 *     u32    version     traceFormatVersion
 *     u64    flags       reserved, must be 0
 *     u64    recordCount patched by TraceWriter::finalize()
 *     u64    entryPc
 *     u64    programFingerprint   arch::fingerprintProgram
 *     u64    dataSeed    seed the workload was built with
 *     u64    scale       workload scale knob (rebuild identity)
 *     u32    nameLen, u8[nameLen] workload name
 *
 *   then a sequence of sections, each { u32 tag; u64 size; payload }.
 *   Readers skip unknown tags. That is also why a trace from an
 *   older writer, which carried the program, slices and memory image
 *   in sections of their own, still opens. TraceWriter writes two:
 *
 *     "RECS"  the record stream, split into independently decodable
 *             chunks: { u32 payloadBytes; u32 nrecords; payload }.
 *             Per-record encoding below.
 *     "ENDS"  footer: u64 recordCount (must equal the header's) and
 *             u64 FNV-1a over every RECS chunk payload byte, started
 *             at recordHashStart. A truncated or bit-rotted file
 *             fails here, not silently.
 *
 * # Record encoding (inside a RECS chunk)
 *
 *     u8 head:   bits 0..3 RecordKind, bit 4 taken
 *     varint     zigzag(pc - prevPc - 8); prevPc starts at -8 per
 *                chunk so a chunk's first record encodes zigzag(pc)
 *                relative to 0 and sequential code costs one byte.
 *     [varint]   zigzag(target - pc), only for kinds with a target
 *                (CondBranch: static taken-target; UncondDirect/Call:
 *                static target; Return/IndirectJump/IndirectCall:
 *                actual next PC).
 *     [varint]   zigzag(memAddr - prevMemAddr), only for Load/Store;
 *                prevMemAddr starts at 0 per chunk.
 *
 * Varints are unsigned LEB128 (7 bits per byte, high bit = continue),
 * at most 10 bytes for a 64-bit value. Deltas use zigzag mapping so
 * small negative strides stay short.
 *
 * # Versioning / bump policy (mirrors the digest schema policy)
 *
 * traceFormatVersion identifies the *container*: bump it whenever a
 * change would make an old reader mis-decode a new file (record field
 * added, header field re-ordered, section payload re-shaped) and teach
 * the reader to reject versions it does not know. Changes that old
 * readers can safely ignore — a new section tag, or dropping a
 * section no reader needs — do NOT bump the version; that is what
 * the skip-unknown-tags rule is for.
 * When you bump: update this comment, extend TraceReader with an
 * explicit error message naming both versions, and regenerate any
 * committed traces. Golden replay digests (golden/<wl>.rdigest) carry
 * the digest schema version, not this one; the two move independently.
 */

#ifndef SPECSLICE_TRACE_FORMAT_HH
#define SPECSLICE_TRACE_FORMAT_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace specslice::trace
{

constexpr char traceMagic[4] = {'s', 's', 't', 'r'};
constexpr std::uint32_t traceFormatVersion = 1;

/** Section tags ("RECS" little-endian packed as u32, etc.). */
constexpr std::uint32_t
sectionTag(const char (&s)[5])
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[1]))
               << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[2]))
               << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[3]))
               << 24;
}

constexpr std::uint32_t tagRecords = sectionTag("RECS");
constexpr std::uint32_t tagFooter = sectionTag("ENDS");

/** Start value of the footer's record-stream FNV-1a. It is not
 *  Fnv1a::offsetBasis (14695981039346656037) but that number with its
 *  last decimal digit dropped; every trace written so far carries it,
 *  so it stays. */
constexpr std::uint64_t recordHashStart = 1469598103934665603ull;

/** Records per RECS chunk (chunks decode independently: the PC and
 *  memory-address delta bases reset at each chunk boundary). */
constexpr std::uint32_t recordsPerChunk = 8192;

/** What kind of retired instruction a record describes. */
enum class RecordKind : std::uint8_t
{
    Other = 0,         ///< ALU or other non-control, non-memory op
    CondBranch = 1,    ///< conditional branch (taken flag, static target)
    UncondDirect = 2,  ///< unconditional direct jump
    Call = 3,          ///< direct call
    Return = 4,        ///< return (target = actual return PC)
    IndirectJump = 5,  ///< indirect jump (target = actual next PC)
    IndirectCall = 6,  ///< indirect call (target = actual next PC)
    Load = 7,          ///< load (memAddr = effective address)
    Store = 8,         ///< store (memAddr = effective address)
    Halt = 9,          ///< program halt
};

constexpr std::uint8_t numRecordKinds = 10;

/** Stable lower-case name for diagnostics and reports. */
const char *recordKindName(RecordKind k);

/** @return true for kinds that carry a target varint. */
constexpr bool
kindHasTarget(RecordKind k)
{
    return k == RecordKind::CondBranch || k == RecordKind::UncondDirect ||
           k == RecordKind::Call || k == RecordKind::Return ||
           k == RecordKind::IndirectJump || k == RecordKind::IndirectCall;
}

/** @return true for kinds that carry a memory-address varint. */
constexpr bool
kindHasMemAddr(RecordKind k)
{
    return k == RecordKind::Load || k == RecordKind::Store;
}

/** One decoded trace record. */
struct TraceRecord
{
    Addr pc = invalidAddr;
    RecordKind kind = RecordKind::Other;
    bool taken = false;          ///< CondBranch direction
    Addr target = invalidAddr;   ///< see kindHasTarget
    Addr memAddr = invalidAddr;  ///< see kindHasMemAddr

    bool operator==(const TraceRecord &o) const = default;
};

/** The header fields that identify a trace. */
struct TraceMeta
{
    std::string name;  ///< workload the trace was emitted from
    Addr entryPc = invalidAddr;
    std::uint64_t programFingerprint = 0;
    std::uint64_t dataSeed = 0;
    std::uint64_t scale = 0;
    std::uint64_t recordCount = 0;
};

// ---------------------------------------------------------------
// Varint / zigzag primitives (unit-tested in test_trace)
// ---------------------------------------------------------------

/** Map a signed delta onto the unsigned LEB128 domain: 0, -1, 1, -2
 *  ... become 0, 1, 2, 3 ... so short negative strides stay short. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append v as unsigned LEB128 (at most 10 bytes). */
inline void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/**
 * Decode one LEB128 value from [*p, end). Advances *p past the value.
 * @return false on truncation or a value wider than 64 bits.
 */
inline bool
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &out)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (p < end) {
        const std::uint8_t byte = *p++;
        if (shift == 63 && (byte & ~std::uint8_t{1}))
            return false;  // overflows 64 bits
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            out = v;
            return true;
        }
        shift += 7;
        if (shift > 63)
            return false;
    }
    return false;  // truncated
}

} // namespace specslice::trace

#endif // SPECSLICE_TRACE_FORMAT_HH
