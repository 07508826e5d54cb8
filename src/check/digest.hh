/**
 * @file
 * Golden stat digests: the canonical, schema-versioned per-workload
 * record of simulator statistics that tools/specslice_verify emits
 * and regression-checks against the committed corpus under golden/.
 *
 * A digest is a line-based text document (trivially diffable in code
 * review) holding the run parameters and, per configuration
 * ("baseline", "slices"), every integer counter plus the
 * cycle-derived ratios:
 *
 *     # comment
 *     schema_version 1
 *     workload vpr
 *     insts 20000
 *     warmup 5000
 *     seed 1
 *     width 4
 *     threads 4
 *     config baseline
 *     counter cycles 123456
 *     counter main_retired 25000
 *     ratio ipc 0.81234
 *     config slices
 *     ...
 *
 * The replay digests (golden/<wl>.rdigest) use the same container,
 * with one "replay-<client>" section per predictor client
 * (trace/replay.hh); lintDigest applies to execution digests only.
 *
 * Comparison rules (diffDigests): integer counters — instruction,
 * retirement, event counts — must match exactly; ratios (doubles that
 * round-trip through decimal text) compare within a relative epsilon.
 */

#ifndef SPECSLICE_CHECK_DIGEST_HH
#define SPECSLICE_CHECK_DIGEST_HH

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace specslice::check
{

/**
 * Digest grammar/semantics version. Bump ONLY when the file format or
 * the meaning of existing keys changes (renames, unit changes, new
 * mandatory keys); regenerating digests after an intentional
 * simulator-behavior change updates the data, not the schema.
 */
constexpr std::uint64_t digestSchemaVersion = 1;

/** Relative tolerance for ratio comparison (decimal round-trip). */
constexpr double digestRatioEpsilon = 1e-9;

struct Digest
{
    std::uint64_t schemaVersion = digestSchemaVersion;
    std::string workload;
    std::uint64_t insts = 0;
    std::uint64_t warmup = 0;
    std::uint64_t seed = 0;
    unsigned width = 0;
    unsigned threads = 0;
    /**
     * Sampling configuration (all 0 for a full run). Optional keys:
     * written only when non-zero, absent keys parse as 0, so digests
     * from full runs — including the whole pre-sampling corpus —
     * round-trip unchanged. A sampled digest's counters cover only
     * the sampled regions and are NOT comparable to a full run's;
     * diffDigests reports that as a sampling-config mismatch instead
     * of a wall of counter diffs.
     */
    std::uint64_t fastforward = 0;  ///< insts skipped before region 1
    std::uint64_t regions = 0;      ///< sampled regions (0 = full run)
    std::uint64_t stride = 0;       ///< insts between region starts

    struct Section
    {
        std::string config;  ///< "baseline" or "slices"
        std::map<std::string, std::uint64_t> counters;
        std::map<std::string, double> ratios;
    };
    std::vector<Section> sections;

    const Section *findSection(const std::string &config) const;
};

/** Serialize canonically (sorted counters, stable float formatting). */
std::string formatDigest(const Digest &d);

/**
 * Parse a digest document. On grammar errors returns nullopt and sets
 * `error` to a "line N: what" diagnostic. Semantic problems (bad
 * schema version, NaN ratios, missing sections) are lintDigest's job.
 */
std::optional<Digest> parseDigest(std::istream &in, std::string &error);

/**
 * Semantic validation: schema version, run parameters, required
 * sections/counters, finite non-negative ratios.
 * @return one message per problem; empty = clean.
 */
std::vector<std::string> lintDigest(const Digest &d);

/**
 * Compare a live digest against the golden one: exact equality for
 * every integer counter (and counter *set*), relative-epsilon
 * equality for ratios, and identical run parameters.
 * @return one message per mismatch; empty = match.
 */
std::vector<std::string> diffDigests(const Digest &golden,
                                     const Digest &live,
                                     double ratio_eps = digestRatioEpsilon);

} // namespace specslice::check

#endif // SPECSLICE_CHECK_DIGEST_HH
