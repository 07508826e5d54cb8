#include "check/digest.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/config.hh"

namespace specslice::check
{

namespace
{

/** Strict non-negative integer parse (no sign, no trailing junk). */
bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s[0] == '-' || s[0] == '+')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno == ERANGE || !end || *end != '\0')
        return false;
    out = v;
    return true;
}

/** Double parse accepting what formatDigest writes (%.17g). */
bool
parseF64(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (errno == ERANGE || !end || *end != '\0')
        return false;
    out = v;
    return true;
}

std::string
formatRatio(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

const Digest::Section *
Digest::findSection(const std::string &config) const
{
    for (const Section &s : sections)
        if (s.config == config)
            return &s;
    return nullptr;
}

std::string
formatDigest(const Digest &d)
{
    std::ostringstream os;
    os << "# specslice golden stat digest (do not edit by hand;\n"
       << "# regenerate: specslice_verify --generate golden/)\n";
    os << "schema_version " << d.schemaVersion << "\n";
    os << "workload " << d.workload << "\n";
    os << "insts " << d.insts << "\n";
    os << "warmup " << d.warmup << "\n";
    os << "seed " << d.seed << "\n";
    os << "width " << d.width << "\n";
    os << "threads " << d.threads << "\n";
    // Sampling keys are optional: omitted for full runs so the
    // committed full-run corpus round-trips byte-identically.
    if (d.fastforward)
        os << "fastforward " << d.fastforward << "\n";
    if (d.regions)
        os << "regions " << d.regions << "\n";
    if (d.stride)
        os << "stride " << d.stride << "\n";
    for (const Digest::Section &s : d.sections) {
        os << "config " << s.config << "\n";
        for (const auto &[k, v] : s.counters)
            os << "counter " << k << " " << v << "\n";
        for (const auto &[k, v] : s.ratios)
            os << "ratio " << k << " " << formatRatio(v) << "\n";
    }
    return os.str();
}

std::optional<Digest>
parseDigest(std::istream &in, std::string &error)
{
    Digest d;
    d.schemaVersion = 0;  // must be stated explicitly
    Digest::Section *cur = nullptr;
    std::string line;
    std::size_t lineno = 0;

    auto fail = [&](const std::string &msg) {
        std::ostringstream os;
        os << "line " << lineno << ": " << msg;
        error = os.str();
        return std::nullopt;
    };

    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;

        std::istringstream ls(line);
        std::string key, a, b, extra;
        ls >> key >> a;
        bool has_b = static_cast<bool>(ls >> b);
        if (ls >> extra)
            return fail("trailing garbage after '" + key + "'");

        auto headerU64 = [&](std::uint64_t &out) -> bool {
            return !has_b && parseU64(a, out);
        };

        if (key == "schema_version") {
            if (!headerU64(d.schemaVersion))
                return fail("bad schema_version value");
        } else if (key == "workload") {
            if (has_b || a.empty())
                return fail("bad workload name");
            d.workload = a;
        } else if (key == "insts") {
            if (!headerU64(d.insts))
                return fail("bad insts value");
        } else if (key == "warmup") {
            if (!headerU64(d.warmup))
                return fail("bad warmup value");
        } else if (key == "seed") {
            if (!headerU64(d.seed))
                return fail("bad seed value");
        } else if (key == "width") {
            std::uint64_t v;
            if (!headerU64(v))
                return fail("bad width value");
            d.width = static_cast<unsigned>(v);
        } else if (key == "threads") {
            std::uint64_t v;
            if (!headerU64(v))
                return fail("bad threads value");
            d.threads = static_cast<unsigned>(v);
        } else if (key == "fastforward") {
            if (!headerU64(d.fastforward))
                return fail("bad fastforward value");
        } else if (key == "regions") {
            if (!headerU64(d.regions))
                return fail("bad regions value");
        } else if (key == "stride") {
            if (!headerU64(d.stride))
                return fail("bad stride value");
        } else if (key == "config") {
            if (has_b || a.empty())
                return fail("bad config name");
            d.sections.emplace_back();
            d.sections.back().config = a;
            cur = &d.sections.back();
        } else if (key == "counter") {
            if (!cur)
                return fail("'counter' before any 'config'");
            std::uint64_t v;
            if (!has_b || !parseU64(b, v))
                return fail("counter '" + a +
                            "' needs a non-negative integer value");
            if (!cur->counters.emplace(a, v).second)
                return fail("duplicate counter '" + a + "'");
        } else if (key == "ratio") {
            if (!cur)
                return fail("'ratio' before any 'config'");
            double v;
            if (!has_b || !parseF64(b, v))
                return fail("ratio '" + a + "' needs a numeric value");
            if (!cur->ratios.emplace(a, v).second)
                return fail("duplicate ratio '" + a + "'");
        } else {
            return fail("unknown directive '" + key + "'");
        }
    }
    return d;
}

std::vector<std::string>
lintDigest(const Digest &d)
{
    std::vector<std::string> problems;
    auto bad = [&](const std::string &msg) { problems.push_back(msg); };

    if (d.schemaVersion != digestSchemaVersion) {
        std::ostringstream os;
        os << "schema_version " << d.schemaVersion << " != supported "
           << digestSchemaVersion;
        bad(os.str());
    }
    if (d.workload.empty())
        bad("missing workload name");
    if (d.insts == 0)
        bad("insts must be > 0");
    if (d.width != 4 && d.width != 8)
        bad("width must be 4 or 8 (the Table 1 machines)");
    if (d.threads == 0 || d.threads > core::maxThreads)
        bad("threads must be in 1.." + std::to_string(core::maxThreads));

    for (const char *req : {"baseline", "slices"}) {
        if (!d.findSection(req))
            bad(std::string("missing '") + req + "' section");
    }
    for (const Digest::Section &s : d.sections) {
        std::size_t copies = 0;
        for (const Digest::Section &o : d.sections)
            if (o.config == s.config)
                ++copies;
        if (copies > 1) {
            bad("duplicate config '" + s.config + "'");
            break;
        }
    }

    for (const Digest::Section &s : d.sections) {
        const std::string at = "config " + s.config + ": ";
        if (s.counters.empty())
            bad(at + "no counters");
        for (const char *req : {"cycles", "main_retired"}) {
            auto it = s.counters.find(req);
            if (it == s.counters.end())
                bad(at + "missing required counter '" + req + "'");
            else if (it->second == 0)
                bad(at + "counter '" + req + "' is zero");
        }
        for (const auto &[k, v] : s.ratios) {
            if (!std::isfinite(v))
                bad(at + "ratio '" + k + "' is not finite");
            else if (v < 0)
                bad(at + "ratio '" + k + "' is negative");
        }
    }
    return problems;
}

std::vector<std::string>
diffDigests(const Digest &golden, const Digest &live, double ratio_eps)
{
    std::vector<std::string> out;
    auto mism = [&](const std::string &msg) { out.push_back(msg); };

    auto cmpU64 = [&](const char *what, std::uint64_t g,
                      std::uint64_t l) {
        if (g != l) {
            std::ostringstream os;
            os << what << ": golden " << g << ", live " << l;
            mism(os.str());
        }
    };
    cmpU64("schema_version", golden.schemaVersion, live.schemaVersion);
    if (golden.workload != live.workload)
        mism("workload: golden '" + golden.workload + "', live '" +
             live.workload + "'");
    cmpU64("insts", golden.insts, live.insts);
    cmpU64("warmup", golden.warmup, live.warmup);
    cmpU64("seed", golden.seed, live.seed);
    cmpU64("width", golden.width, live.width);
    cmpU64("threads", golden.threads, live.threads);

    // Sampling config is part of a run's identity: a sampled run's
    // counters cover only its regions, so comparing them against a
    // full run (or a differently-sampled one) produces nothing but
    // noise. Say that once, clearly, instead.
    const bool sampling_mismatch = golden.fastforward != live.fastforward ||
                                   golden.regions != live.regions ||
                                   golden.stride != live.stride;
    if (sampling_mismatch) {
        auto desc = [](const Digest &d) {
            if (!d.fastforward && !d.regions && !d.stride)
                return std::string("full run");
            std::ostringstream os;
            os << "sampled (fastforward " << d.fastforward
               << ", regions " << d.regions << ", stride " << d.stride
               << ")";
            return os.str();
        };
        mism("sampling config mismatch: golden is " + desc(golden) +
             ", live is " + desc(live) +
             "; counters cover different regions and are not "
             "comparable — regenerate the golden digest with the "
             "same sampling configuration");
        // Per-counter diffs between differently-sampled runs are pure
        // noise; stop at the real problem.
        return out;
    }

    for (const Digest::Section &gs : golden.sections) {
        const Digest::Section *ls = live.findSection(gs.config);
        if (!ls) {
            mism("config '" + gs.config + "' missing from live run");
            continue;
        }
        const std::string at = gs.config + ".";
        for (const auto &[k, gv] : gs.counters) {
            auto it = ls->counters.find(k);
            if (it == ls->counters.end()) {
                mism(at + k + ": missing from live run");
                continue;
            }
            if (it->second != gv) {
                std::ostringstream os;
                os << at << k << ": golden " << gv << ", live "
                   << it->second;
                mism(os.str());
            }
        }
        for (const auto &[k, lv] : ls->counters) {
            (void)lv;
            if (!gs.counters.count(k))
                mism(at + k +
                     ": new counter not in golden digest (regenerate)");
        }
        for (const auto &[k, gv] : gs.ratios) {
            auto it = ls->ratios.find(k);
            if (it == ls->ratios.end()) {
                mism(at + k + ": ratio missing from live run");
                continue;
            }
            double lv = it->second;
            double scale = std::max(
                {1.0, std::fabs(gv), std::fabs(lv)});
            bool both_nan = std::isnan(gv) && std::isnan(lv);
            if (!both_nan && !(std::fabs(gv - lv) <= ratio_eps * scale)) {
                std::ostringstream os;
                os << at << k << ": golden " << formatRatio(gv)
                   << ", live " << formatRatio(lv);
                mism(os.str());
            }
        }
        for (const auto &[k, lv] : ls->ratios) {
            (void)lv;
            if (!gs.ratios.count(k))
                mism(at + k +
                     ": new ratio not in golden digest (regenerate)");
        }
    }
    for (const Digest::Section &ls : live.sections) {
        if (!golden.findSection(ls.config))
            mism("config '" + ls.config +
                 "' not in golden digest (regenerate)");
    }
    return out;
}

} // namespace specslice::check
