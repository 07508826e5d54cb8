/**
 * @file
 * Core (pipeline) configuration, mirroring Table 1's "Front End" and
 * "Execution Core" rows for the 4-wide and 8-wide machines.
 */

#ifndef SPECSLICE_CORE_CONFIG_HH
#define SPECSLICE_CORE_CONFIG_HH

#include "branch/predictor_unit.hh"
#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "slice/correlator.hh"
#include "slice/slice_table.hh"

namespace specslice::core
{

/** The most SMT contexts a core may have. ThreadId is eight bits and
 *  the per-thread loops count with it, so the bound must stay well
 *  below 256; SmtCore, the digest lint and the tools all check it. */
inline constexpr unsigned maxThreads = 64;

struct CoreConfig
{
    /** SMT hardware contexts (1 main + idle helpers), 1..maxThreads. */
    unsigned numThreads = 4;

    unsigned fetchWidth = 4;
    unsigned issueWidth = 4;
    unsigned retireWidth = 4;
    unsigned windowSize = 128;

    /**
     * Fetch-to-issue-eligibility delay in cycles. With 1 cycle each for
     * issue and execute, the observed branch misprediction penalty is
     * frontEndDepth + 2, i.e. Table 1's 14-stage pipeline.
     */
    Cycle frontEndDepth = 12;

    /** Functional unit counts. */
    unsigned numIntAlu = 4;     ///< full complement of simple units
    unsigned numMemPorts = 2;   ///< load/store ports
    unsigned numComplex = 1;    ///< single complex integer unit
    unsigned numFp = 2;

    /**
     * ICOUNT fetch-policy bias toward the main thread (subtracted from
     * the main thread's in-flight count when choosing who fetches).
     */
    int mainThreadFetchBias = 16;

    /**
     * Stop fetching a slice once every branch-queue entry it feeds has
     * been slice-killed (the main thread left the slice's valid
     * region, so no further prediction can be consumed). Reduces the
     * execution overhead Section 6.1 discusses; bench_paper's
     * correlator ablation turns it off.
     */
    bool terminateDeadSlices = true;

    /**
     * Use late predictions for early resolution (Section 5.3): when a
     * PGI executes after its branch was fetched but before it
     * resolves, a disagreeing outcome reverses the prediction and
     * redirects fetch. Off = late predictions are ignored.
     */
    bool lateReversalsEnabled = true;

    /**
     * Section 6.3 extension: gate forks with a confidence estimator
     * ("obvious future work is gating the fork using confidence").
     * A per-fork-PC saturating counter tracks whether recent slices
     * from that fork point produced predictions the main thread
     * consumed; low-confidence fork points stop forking. Off by
     * default (the paper's evaluation does not gate).
     */
    bool forkConfidenceGating = false;

    /**
     * Section 6.3 extension: "execution overhead could be eliminated
     * by having dedicated resources to execute the slice". When set,
     * helper threads fetch in parallel with the main thread (their own
     * fetch port), occupy a separate window, and do not count against
     * the issue width; only the cache ports remain shared. Off by
     * default (the paper's evaluation shares everything).
     */
    bool dedicatedSliceResources = false;

    branch::PredictorConfig predictor;
    mem::MemConfig memory;
    slice::PredictionCorrelator::Config correlator;
    slice::SliceTable::Limits sliceTable;

    /** Table 1's 4-wide machine. */
    static CoreConfig
    fourWide()
    {
        return CoreConfig{};
    }

    /** Table 1's 8-wide machine: 256-entry window, 4 load/store units. */
    static CoreConfig
    eightWide()
    {
        CoreConfig cfg;
        cfg.fetchWidth = 8;
        cfg.issueWidth = 8;
        cfg.retireWidth = 8;
        cfg.windowSize = 256;
        cfg.numIntAlu = 8;
        cfg.numMemPorts = 4;
        cfg.numFp = 4;
        return cfg;
    }
};

} // namespace specslice::core

#endif // SPECSLICE_CORE_CONFIG_HH
