#include "trace/frontend.hh"

#include "arch/checkpoint.hh"
#include "isa/opcodes.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

namespace specslice::trace
{

namespace
{

/** Classify one retired instruction for the record stream. */
TraceRecord
toRecord(const arch::TraceEvent &ev)
{
    TraceRecord r;
    r.pc = ev.pc;
    const isa::Instruction &si = *ev.inst;
    if (si.isCondBranch()) {
        r.kind = RecordKind::CondBranch;
        r.taken = ev.result.taken;
        r.target = si.target;
    } else if (si.isReturn()) {
        r.kind = RecordKind::Return;
        r.taken = true;
        r.target = ev.result.nextPc;
    } else if (si.isIndirect()) {
        r.kind = si.isCall() ? RecordKind::IndirectCall
                             : RecordKind::IndirectJump;
        r.taken = true;
        r.target = ev.result.nextPc;
    } else if (si.traits().isUncondDirect) {
        r.kind = si.isCall() ? RecordKind::Call : RecordKind::UncondDirect;
        r.taken = true;
        r.target = si.target;
    } else if (si.op == isa::Opcode::Halt) {
        r.kind = RecordKind::Halt;
    } else if (si.isLoad()) {
        r.kind = RecordKind::Load;
        r.memAddr = ev.result.memAddr;
    } else if (si.isStore()) {
        r.kind = RecordKind::Store;
        r.memAddr = ev.result.memAddr;
    } else {
        r.kind = RecordKind::Other;
    }
    return r;
}

} // namespace

std::optional<EmitResult>
emitWorkloadTrace(const sim::Workload &wl, std::uint64_t data_seed,
                  std::uint64_t max_insts, const std::string &path,
                  std::string &error)
{
    TraceMeta meta;
    meta.name = wl.name;
    meta.entryPc = wl.entry;
    meta.programFingerprint = arch::fingerprintProgram(wl.program);
    meta.dataSeed = data_seed;
    meta.scale = wl.scale;

    TraceWriter w(path, meta);
    if (!w.ok()) {
        error = w.error();
        return std::nullopt;
    }

    arch::MemoryImage mem;
    if (wl.initMemory)
        wl.initMemory(mem);
    const arch::TraceResult tr =
        arch::trace(wl.program, wl.entry, mem, max_insts,
                    [&](const arch::TraceEvent &ev) {
                        w.append(toRecord(ev));
                    });

    EmitResult out;
    out.records = w.recordCount();
    out.stop = tr.reason;
    if (!w.finalize()) {
        error = w.error();
        return std::nullopt;
    }
    return out;
}

std::optional<std::uint64_t>
verifyTraceFidelity(const std::string &path, const sim::Workload &wl,
                    std::string &error)
{
    std::optional<TraceFile> file = TraceFile::open(path, error);
    if (!file)
        return std::nullopt;
    const TraceMeta &meta = file->meta();
    std::string differs;
    if (wl.name != meta.name)
        differs = "name '" + wl.name + "'";
    else if (wl.scale != meta.scale)
        differs = "scale " + std::to_string(wl.scale);
    else if (arch::fingerprintProgram(wl.program) !=
             meta.programFingerprint)
        differs = "program fingerprint";
    if (!differs.empty()) {
        error = "trace '" + path + "' names " + meta.name +
                " at scale " + std::to_string(meta.scale) +
                "; the workload to re-execute differs in its " + differs;
        return std::nullopt;
    }

    arch::MemoryImage mem;
    if (wl.initMemory)
        wl.initMemory(mem);
    TraceReader rd = file->records();
    std::string mismatch;
    arch::trace(
        wl.program, wl.entry, mem, meta.recordCount,
        [&](const arch::TraceEvent &ev) {
            if (!mismatch.empty())
                return;
            TraceRecord want = toRecord(ev);
            TraceRecord got;
            if (!rd.next(got)) {
                mismatch = rd.ok() ? "record stream ended early at #" +
                                         std::to_string(rd.position())
                                   : rd.error();
                return;
            }
            if (got.pc != want.pc || got.kind != want.kind ||
                got.taken != want.taken || got.target != want.target ||
                got.memAddr != want.memAddr) {
                mismatch =
                    "record #" + std::to_string(rd.position() - 1) +
                    " diverges from re-execution: stored {pc=" +
                    std::to_string(got.pc) + ", " +
                    std::string(recordKindName(got.kind)) +
                    "}, re-executed {pc=" + std::to_string(want.pc) +
                    ", " + std::string(recordKindName(want.kind)) + "}";
            }
        });
    if (!mismatch.empty()) {
        error = "trace '" + path + "': " + mismatch;
        return std::nullopt;
    }
    TraceRecord extra;
    if (rd.next(extra)) {
        error = "trace '" + path + "': record stream has " +
                std::to_string(meta.recordCount - rd.position() + 1) +
                " records beyond the re-executed instruction stream";
        return std::nullopt;
    }
    if (!rd.ok()) {
        error = "trace '" + path + "': " + rd.error();
        return std::nullopt;
    }
    return rd.position();
}

} // namespace specslice::trace
