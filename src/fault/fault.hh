/**
 * @file
 * Seeded, deterministic fault injection.
 *
 * A FaultPlan is parsed from a `--inject` / SS_INJECT spec string and
 * describes *where* and *how often* to perturb the simulation; an
 * Injector is the per-run instance that decides, deterministically,
 * whether a given tap event fires. Simulation units (memory hierarchy,
 * predictor, correlator, core) hold an `Injector *` and ask it at
 * their tap points; a null or inactive injector costs one predictable
 * branch.
 *
 * Spec grammar (comma-separated list of faults):
 *
 *     spec  := fault ("," fault)*
 *     fault := site [":" ["+"] uint] "@" trigger
 *     trigger := "p" float          fire with probability p per event
 *              | "n" uint           fire on every Nth event (1-based)
 *
 * Sites:
 *
 *     mem.latency   add `arg` extra cycles to a data access
 *                   (default +200)
 *     mem.wbstall   reject a store write-back (retirement retries
 *                   next cycle; `@p1` produces a genuine livelock)
 *     slice.kill    terminate a forked slice thread `arg` cycles
 *                   after the fork (default 64)
 *     pred.flip     invert one conditional-branch prediction
 *     corr.drop     drop one correlator PGI activation (no branch
 *                   queue is armed)
 *     check.reg     corrupt the Nth checked register result
 *                   (requires @nN; exercises the checker itself)
 *     check.store   corrupt the Nth checked store value (requires @nN)
 *
 * Service-level sites (fired by the result cache through the
 * process-wide service injector, not by the simulator — see
 * isServiceSite()):
 *
 *     cache.enospc  fail a result-cache store as if the disk were
 *                   full (the cache degrades to pass-through)
 *     cache.flip    flip one payload bit on a cache read (the entry
 *                   is checksum-rejected and quarantined)
 *
 * Example: `mem.latency:+200@p0.01,slice.kill@n5`.
 *
 * Determinism: each site gets its own RNG stream seeded from
 * `plan.seed ^ f(site)` and its own event counter, so firing decisions
 * depend only on (seed, site, event index) — never on wall clock,
 * thread scheduling, or other sites. A sweep produces identical
 * results at `--jobs 1` and `--jobs 8`.
 *
 * No StatGroup counters are registered: fired counts live in the
 * Injector and surface through RunResult, so golden stat digests are
 * byte-identical whether or not injection is compiled in or enabled.
 */

#ifndef SPECSLICE_FAULT_FAULT_HH
#define SPECSLICE_FAULT_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace specslice::fault
{

/** Every tap point the injector knows about. */
enum class Site
{
    MemLatency,
    MemWbStall,
    SliceKill,
    PredFlip,
    CorrDrop,
    CheckReg,
    CheckStore,
    CacheEnospc,
    CacheFlip,
    NumSites,
};

constexpr std::size_t numSites =
    static_cast<std::size_t>(Site::NumSites);

/** Spec-string name of a site ("mem.latency", ...). */
const char *siteName(Site site);

/** True for the cache.* sites, which tap the result cache rather than
 *  the simulator core. They are inert inside a simulation and fire
 *  only through the process-wide service injector below. */
bool isServiceSite(Site site);

/** One parsed fault from the spec string. */
struct FaultSpec
{
    Site site = Site::NumSites;
    bool periodic = false;    ///< true: fire every `period` events
    std::uint64_t period = 0; ///< for @nN triggers
    double prob = 0.0;        ///< for @pX triggers
    std::uint64_t arg = 0;    ///< site argument (latency, delay, ...)
};

/**
 * A parsed, validated injection plan: what to inject, plus the seed
 * that makes every run of the plan deterministic.
 */
struct FaultPlan
{
    std::vector<FaultSpec> specs;
    std::uint64_t seed = 0;

    bool empty() const { return specs.empty(); }

    /** Canonical one-line rendering of the plan ("" when empty). */
    std::string describe() const;

    /**
     * Parse a spec string (see grammar above) into `plan.specs`.
     * Leaves `plan.seed` untouched. On failure returns false and sets
     * `err` to a message naming the offending token and the valid
     * sites/grammar.
     */
    static bool parse(const std::string &text, FaultPlan &plan,
                     std::string &err);

    /**
     * parse() for a plan armed on simulation runs (`--inject`,
     * SS_INJECT): additionally rejects service-level sites, which no
     * simulation fires, so a plan cannot be accepted and then
     * silently never fire.
     */
    static bool parseSimPlan(const std::string &text, FaultPlan &plan,
                             std::string &err);

    /** The grammar/site help text used in parse errors and --help. */
    static std::string grammarHelp();
};

/**
 * Per-run injection state. Construct one per simulation run from the
 * plan; hand `Injector *` to the units that host tap points. fire()
 * advances per-site counters/RNG streams, so the object must not be
 * shared across concurrently running simulations.
 */
class Injector
{
  public:
    Injector() = default;
    explicit Injector(const FaultPlan &plan);

    /** Is any fault configured at all? */
    bool enabled() const { return enabled_; }

    /** Is this particular site armed? */
    bool armed(Site site) const { return slot(site).active; }

    /**
     * Record one tap event at `site` and decide whether the fault
     * fires on it. Deterministic given (plan.seed, site, event index).
     */
    bool
    fire(Site site)
    {
        Slot &s = slot(site);
        if (!s.active)
            return false;
        return fireSlow(s);
    }

    /** The site argument (extra latency, kill delay, ...). */
    std::uint64_t arg(Site site) const { return slot(site).arg; }

    /** How many times `site` has fired this run. */
    std::uint64_t firedAt(Site site) const { return slot(site).fired; }

    /** Total fires across all sites this run. */
    std::uint64_t firedTotal() const;

    /** "site=count,site=count" for sites that fired ("" if none). */
    std::string firedSummary() const;

  private:
    struct Slot
    {
        bool active = false;
        bool periodic = false;
        std::uint64_t period = 0;
        double prob = 0.0;
        std::uint64_t arg = 0;
        std::uint64_t events = 0;
        std::uint64_t fired = 0;
        Rng rng;
    };

    Slot &slot(Site site) { return slots_[static_cast<std::size_t>(site)]; }
    const Slot &
    slot(Site site) const
    {
        return slots_[static_cast<std::size_t>(site)];
    }

    bool fireSlow(Slot &s);

    Slot slots_[numSites];
    bool enabled_ = false;
};

/**
 * Install (or clear, with nullptr) the process-wide injector for
 * service-level sites; tests install one to drive the result cache's
 * failure paths. Not thread-safe by design: install it before any
 * cache I/O begins.
 */
void setServiceInjector(Injector *inj);

/** Convenience: fire `site` on the service injector if one is
 *  installed and armed there; false otherwise. */
bool serviceFire(Site site);

} // namespace specslice::fault

#endif // SPECSLICE_FAULT_FAULT_HH
