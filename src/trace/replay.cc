#include "trace/replay.hh"

#include "isa/opcodes.hh"

namespace specslice::trace
{

ReplayStats
replayRecords(TraceReader &r, branch::PredictorClient &client)
{
    ReplayStats s;
    TraceRecord rec;
    while (r.next(rec)) {
        ++s.records;
        switch (rec.kind) {
          case RecordKind::CondBranch: {
            const bool pred = client.predictCond(rec.pc, rec.target);
            ++s.condBranches;
            if (rec.taken)
                ++s.condTaken;
            if (pred != rec.taken)
                ++s.condMispredicts;
            client.updateCond(rec.pc, rec.taken);
            break;
          }
          case RecordKind::Return: {
            const Addr pred =
                client.predictTarget(rec.pc, branch::TargetKind::Return);
            ++s.returns;
            if (pred != rec.target)
                ++s.returnMispredicts;
            client.updateTarget(rec.pc, branch::TargetKind::Return,
                                rec.target);
            break;
          }
          case RecordKind::IndirectJump: {
            const Addr pred =
                client.predictTarget(rec.pc, branch::TargetKind::Jump);
            ++s.indirectBranches;
            if (pred != rec.target)
                ++s.indirectMispredicts;
            client.updateTarget(rec.pc, branch::TargetKind::Jump,
                                rec.target);
            break;
          }
          case RecordKind::IndirectCall: {
            const Addr pred =
                client.predictTarget(rec.pc, branch::TargetKind::Call);
            ++s.indirectBranches;
            ++s.calls;
            if (pred != rec.target)
                ++s.indirectMispredicts;
            client.observeCall(rec.pc + isa::instBytes);
            client.updateTarget(rec.pc, branch::TargetKind::Call,
                                rec.target);
            break;
          }
          case RecordKind::Call:
            ++s.calls;
            client.observeCall(rec.pc + isa::instBytes);
            break;
          case RecordKind::UncondDirect:
            ++s.uncondDirect;
            break;
          case RecordKind::Load:
            ++s.loads;
            break;
          case RecordKind::Store:
            ++s.stores;
            break;
          case RecordKind::Halt:
            ++s.halts;
            break;
          case RecordKind::Other:
            ++s.others;
            break;
        }
    }
    client.report(s.clientCounters);
    return s;
}

check::Digest::Section
replaySection(const std::string &client, const ReplayStats &s)
{
    check::Digest::Section sec;
    sec.config = "replay-" + client;
    auto &c = sec.counters;
    c["records"] = s.records;
    c["cond_branches"] = s.condBranches;
    c["cond_taken"] = s.condTaken;
    c["cond_mispredicts"] = s.condMispredicts;
    c["indirect_branches"] = s.indirectBranches;
    c["indirect_mispredicts"] = s.indirectMispredicts;
    c["returns"] = s.returns;
    c["return_mispredicts"] = s.returnMispredicts;
    c["calls"] = s.calls;
    c["uncond_direct"] = s.uncondDirect;
    c["loads"] = s.loads;
    c["stores"] = s.stores;
    c["others"] = s.others;
    c["halts"] = s.halts;
    for (const auto &[key, value] : s.clientCounters)
        c["client." + key] = value;
    // Ratios are only emitted when the denominator is live: a NaN
    // placeholder would poison the exact diff for predictors that
    // never see that branch class.
    auto &ratios = sec.ratios;
    if (s.condBranches)
        ratios["cond_accuracy"] =
            1.0 - static_cast<double>(s.condMispredicts) /
                      static_cast<double>(s.condBranches);
    if (s.indirectBranches)
        ratios["indirect_accuracy"] =
            1.0 - static_cast<double>(s.indirectMispredicts) /
                      static_cast<double>(s.indirectBranches);
    if (s.returns)
        ratios["return_accuracy"] =
            1.0 - static_cast<double>(s.returnMispredicts) /
                      static_cast<double>(s.returns);
    return sec;
}

std::optional<ReplayRows>
replayClients(const TraceFile &file,
              const std::vector<std::string> &clients,
              std::string &error)
{
    ReplayRows rows;
    for (const std::string &name : clients) {
        auto client = branch::makePredictorClient(name);
        TraceReader rd = file.records();
        rows.emplace_back(name, replayRecords(rd, *client));
        if (!rd.ok()) {
            error = rd.error();
            return std::nullopt;
        }
    }
    return rows;
}

check::Digest
replayDigest(const TraceMeta &meta, const ReplayRows &sections)
{
    check::Digest d;
    d.workload = meta.name;
    d.insts = meta.recordCount;
    d.warmup = 0;
    d.seed = meta.dataSeed;
    d.width = 1;    // in-order replay: one record at a time
    d.threads = 1;  // single stream
    for (const auto &[client, stats] : sections)
        d.sections.push_back(replaySection(client, stats));
    return d;
}

} // namespace specslice::trace
