/**
 * @file
 * In-order trace replay: stream an sstr record stream through a
 * PredictorClient and score it, CVP-harness style. The replay digest
 * (.rdigest) reuses the check::Digest container — same parser, same
 * formatter, same exact-counter diff — with one section per predictor.
 * specslice_verify writes and checks golden/<wl>.rdigest next to the
 * workload's execution digest: it emits the workload's trace and
 * replays it through every registered client. Replay digests have no
 * baseline/slices sections, so check::lintDigest (execution-only)
 * does not apply to them; they get parse and diff.
 */

#ifndef SPECSLICE_TRACE_REPLAY_HH
#define SPECSLICE_TRACE_REPLAY_HH

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "branch/predictor_client.hh"
#include "check/digest.hh"
#include "trace/reader.hh"

namespace specslice::trace
{

/** What replaying one trace through one client produced. */
struct ReplayStats
{
    std::uint64_t records = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t condTaken = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t indirectBranches = 0;  ///< jumps + indirect calls
    std::uint64_t indirectMispredicts = 0;
    std::uint64_t returns = 0;
    std::uint64_t returnMispredicts = 0;
    std::uint64_t calls = 0;  ///< direct + indirect
    std::uint64_t uncondDirect = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t others = 0;
    std::uint64_t halts = 0;
    /** Client-specific counters from PredictorClient::report(). */
    std::map<std::string, std::uint64_t> clientCounters;

    double
    condAccuracy() const
    {
        return condBranches ? 1.0 - static_cast<double>(condMispredicts) /
                                        static_cast<double>(condBranches)
                            : 0.0;
    }
};

/** One (client name, replay stats) pair per replayed predictor. */
using ReplayRows = std::vector<std::pair<std::string, ReplayStats>>;

/**
 * Drive client with every record in r. The reader's error state is
 * the caller's to check: stats cover the records decoded before any
 * failure.
 */
ReplayStats replayRecords(TraceReader &r,
                          branch::PredictorClient &client);

/**
 * Replay file through each named client (branch::makePredictorClient),
 * one fresh cursor per client.
 * @return nullopt (and set error) if the record stream fails to decode.
 */
std::optional<ReplayRows>
replayClients(const TraceFile &file,
              const std::vector<std::string> &clients,
              std::string &error);

/**
 * Package meta's trace replayed through each client as a digest
 * document: one section per predictor, exact counters, accuracy
 * ratios. Diffable with check::diffDigests.
 */
check::Digest replayDigest(const TraceMeta &meta,
                           const ReplayRows &sections);

/** Per-section counters/ratios used by replayDigest (exposed so the
 *  JSON path renders exactly the digest's numbers). */
check::Digest::Section replaySection(const std::string &client,
                                     const ReplayStats &stats);

} // namespace specslice::trace

#endif // SPECSLICE_TRACE_REPLAY_HH
