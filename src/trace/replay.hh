/**
 * @file
 * In-order trace replay: stream an sstr record stream through a
 * PredictorClient and score it, CVP-harness style. The replay digest
 * (.rdigest) reuses the check::Digest container — same parser, same
 * formatter, same exact-counter diff — with one section per predictor,
 * so golden replay accuracy is gated exactly like golden execution
 * stats. The .rdigest extension keeps these out of golden_lint's
 * execution-digest sweep (replay digests have no baseline/slices
 * sections to lint).
 */

#ifndef SPECSLICE_TRACE_REPLAY_HH
#define SPECSLICE_TRACE_REPLAY_HH

#include <map>
#include <string>
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

/**
 * Drive client with every record in r. The reader's error state is
 * the caller's to check: stats cover the records decoded before any
 * failure.
 */
ReplayStats replayRecords(TraceReader &r,
                          branch::PredictorClient &client);

/**
 * Replay meta's trace through every named client and package the
 * results as a digest document: one section per predictor, exact
 * counters, accuracy ratios. Diffable with check::diffDigests.
 */
check::Digest replayDigest(
    const TraceMeta &meta,
    const std::vector<std::pair<std::string, ReplayStats>> &sections);

/** Per-section counters/ratios used by replayDigest (exposed so the
 *  JSON path renders exactly the digest's numbers). */
check::Digest::Section replaySection(const std::string &client,
                                     const ReplayStats &stats);

} // namespace specslice::trace

#endif // SPECSLICE_TRACE_REPLAY_HH
