/**
 * @file
 * Per-static-instruction "magic" perfection, used for Figure 1 (problem
 * instructions perfect vs all perfect) and Figure 11's constrained
 * limit study. A perfect branch is always predicted correctly at
 * fetch; a perfect load always completes with the L1 hit latency.
 */

#ifndef SPECSLICE_CORE_PERFECT_HH
#define SPECSLICE_CORE_PERFECT_HH

#include <unordered_set>

#include "common/types.hh"

namespace specslice::core
{

struct PerfectSpec
{
    bool allBranchesPerfect = false;
    bool allLoadsPerfect = false;
    std::unordered_set<Addr> branchPcs;  ///< per-static perfect branches
    std::unordered_set<Addr> loadPcs;    ///< per-static perfect loads

    bool
    branchPerfect(Addr pc) const
    {
        return allBranchesPerfect || branchPcs.count(pc) != 0;
    }

    bool
    loadPerfect(Addr pc) const
    {
        return allLoadsPerfect || loadPcs.count(pc) != 0;
    }

    bool
    any() const
    {
        return allBranchesPerfect || allLoadsPerfect ||
               !branchPcs.empty() || !loadPcs.empty();
    }

    bool operator==(const PerfectSpec &) const = default;
};

} // namespace specslice::core

#endif // SPECSLICE_CORE_PERFECT_HH
