/**
 * @file
 * Canonical cache keys for simulation results and checkpoints.
 *
 * A key must change whenever anything that could change the simulated
 * numbers changes — workload identity (name, scale, seed, program
 * bytes), every MachineConfig knob, every result-affecting RunOptions
 * field, whether slices run, the result-document schema, and the
 * simulator binary itself — and must NOT change across process
 * restarts or between processes built from the same binary. The implementation therefore renders an explicit, ordered
 * "field = value" text block (canonicalKeyText, kept human-readable
 * for debugging cache misses) and hashes it with SHA-256 together
 * with the running binary's fingerprint.
 *
 * Observation-only RunOptions (interval sinks, event buffers, trace
 * flags) are deliberately excluded: they change what is *recorded*,
 * never what *happens*, and including them would shatter the cache
 * across equivalent runs. The intervalCycles window length IS
 * included because RunResult::intervals is part of the cached
 * payload.
 *
 * The same construction keys specslice_verify's cached checkpoints
 * (checkpointCacheKey): the key lands in the checkpoint's filename,
 * so a changed binary, program, or fast-forward depth produces a
 * different name and the stale file is simply never opened again —
 * invalidation by construction, with no sidecar metadata to desync.
 */

#ifndef SPECSLICE_SIM_RUN_KEY_HH
#define SPECSLICE_SIM_RUN_KEY_HH

#include <string>

#include "sim/simulator.hh"
#include "sim/workload.hh"

namespace specslice::sim
{

/** Everything that identifies one simulation request. */
struct RunKeyInputs
{
    const Workload *workload = nullptr;
    /** The workloads::Params seed the workload was built with (the
     *  program fingerprint alone can miss data-only seed effects). */
    std::uint64_t dataSeed = 0;
    const MachineConfig *config = nullptr;
    const RunOptions *options = nullptr;
    bool withSlices = false;
};

/**
 * The ordered "field = value" rendering of every key component except
 * the binary fingerprint (appended by runCacheKey so the text stays
 * stable across rebuilds for diffing).
 */
std::string canonicalKeyText(const RunKeyInputs &in);

/** 64 hex chars: SHA-256(canonicalKeyText + binary fingerprint). */
std::string runCacheKey(const RunKeyInputs &in);

/**
 * Short (16 hex chars) key for a cached fast-forward checkpoint of
 * `wl` at instruction `fastforward`: workload identity + program
 * bytes + fast-forward depth + checkpoint format version + binary
 * fingerprint. Used as a filename component.
 */
std::string checkpointCacheKey(const Workload &wl,
                               std::uint64_t data_seed,
                               std::uint64_t fastforward);

} // namespace specslice::sim

#endif // SPECSLICE_SIM_RUN_KEY_HH
