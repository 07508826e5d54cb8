/**
 * @file
 * The speculative-slice annotation set (Figure 5's "Annotations"): fork
 * point, slice entry PC, live-in registers, maximum loop iteration
 * count, the slice's prediction generating instructions (PGIs) with the
 * problem branches they feed, and the kill points used for prediction
 * correlation (Section 5.1's loop-iteration kills and slice kills).
 *
 * Slices are constructed by hand (as in the paper) in the workload
 * builders; this struct is what the hardware tables get loaded with.
 */

#ifndef SPECSLICE_SLICE_DESCRIPTOR_HH
#define SPECSLICE_SLICE_DESCRIPTOR_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace specslice::slice
{

/** One prediction generating instruction and its consumer branch. */
struct PgiSpec
{
    Addr sliceInstPc = invalidAddr;     ///< PGI inside the slice code
    Addr problemBranchPc = invalidAddr; ///< branch in the main thread

    /**
     * Direction convention: a non-zero PGI result predicts the problem
     * branch taken; set invert when the slice computes the complement
     * (e.g. the slice evaluates the loop-continue condition while the
     * problem branch is the loop-exit test).
     */
    bool invert = false;

    /**
     * Kill annotations for the branch-queue entry this PGI feeds
     * (Figure 10: loop PC kills the head prediction once per loop
     * iteration; kill PC kills all remaining predictions).
     */
    Addr loopKillPc = invalidAddr;
    Addr sliceKillPc = invalidAddr;
    /**
     * When the loop-kill block is the target of the loop back-edge,
     * its first instance precedes the first problem-branch instance
     * and must not kill ("the first instance of the block should not
     * kill any predictions", Section 5.1).
     */
    bool loopKillSkipFirst = false;
};

/** A complete hand-constructed speculative slice. */
struct SliceDescriptor
{
    std::string name;

    /** Existing main-thread instruction whose fetch forks the slice. */
    Addr forkPc = invalidAddr;

    /** First instruction of the slice code. */
    Addr slicePc = invalidAddr;

    /** Registers copied from the main thread at fork (typically <=4). */
    std::vector<RegIndex> liveIns;

    /**
     * Maximum loop iterations (profile-derived upper bound); 0 means
     * the slice contains no loop. Exceeding it terminates the slice
     * ("runaway slice" protection, Section 3.2).
     */
    unsigned maxLoopIters = 0;

    /** The slice's loop back-edge branch PC (iterations are counted
     *  as taken executions of this branch); invalidAddr if no loop. */
    Addr loopBackEdgePc = invalidAddr;

    /** Prediction generating instructions. */
    std::vector<PgiSpec> pgis;

    /**
     * Main-thread problem loads this slice prefetches (their PCs).
     * Used for the constrained limit study and covered-miss stats.
     */
    std::vector<Addr> coveredLoadPcs;

    /** Main-thread problem branches this slice predicts (their PCs). */
    std::vector<Addr> coveredBranchPcs;

    /** Slice loads that act as prefetches (for Table 3's pref count). */
    std::vector<Addr> prefetchLoadPcs;

    /** Static size of the slice in instructions (for Table 3). */
    unsigned staticSize = 0;

    /** Distinct kill PCs used for correlation (Table 3's kills). */
    unsigned
    killCount() const
    {
        std::vector<Addr> seen;
        for (const PgiSpec &p : pgis) {
            for (Addr k : {p.loopKillPc, p.sliceKillPc}) {
                if (k == invalidAddr)
                    continue;
                bool dup = false;
                for (Addr s : seen)
                    dup = dup || s == k;
                if (!dup)
                    seen.push_back(k);
            }
        }
        return static_cast<unsigned>(seen.size());
    }
};

} // namespace specslice::slice

#endif // SPECSLICE_SLICE_DESCRIPTOR_HH
