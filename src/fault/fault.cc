#include "fault/fault.hh"

#include <cstdio>
#include <cstdlib>

namespace specslice::fault
{

namespace
{

struct SiteInfo
{
    Site site;
    const char *name;
    const char *help;
    std::uint64_t defaultArg; ///< 0 = site takes no argument
    bool requiresPeriodic;    ///< check.* must use @nN
};

constexpr SiteInfo site_table[] = {
    {Site::MemLatency, "mem.latency",
     "add ARG extra cycles to a data access (default +200)", 200,
     false},
    {Site::MemWbStall, "mem.wbstall",
     "reject a store write-back (retirement retries)", 0, false},
    {Site::SliceKill, "slice.kill",
     "kill a forked slice ARG cycles after fork (default 64)", 64,
     false},
    {Site::PredFlip, "pred.flip",
     "invert one conditional-branch prediction", 0, false},
    {Site::CorrDrop, "corr.drop",
     "drop one correlator PGI activation", 0, false},
    {Site::CheckReg, "check.reg",
     "corrupt the Nth checked register result (requires @nN)", 0,
     true},
    {Site::CheckStore, "check.store",
     "corrupt the Nth checked store value (requires @nN)", 0, true},
    {Site::CacheEnospc, "cache.enospc",
     "fail a result-cache store as if the disk were full", 0, false},
    {Site::CacheFlip, "cache.flip",
     "flip one payload bit on a result-cache read", 0, false},
};

static_assert(sizeof(site_table) / sizeof(site_table[0]) == numSites,
              "site_table must cover every Site");

const SiteInfo *
lookupSite(const std::string &name)
{
    for (const SiteInfo &info : site_table)
        if (name == info.name)
            return &info;
    return nullptr;
}

/** Trim ASCII whitespace from both ends. */
std::string
trimmed(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return {};
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

bool
parseUint(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

bool
parseProb(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size())
        return false;
    if (v < 0.0 || v > 1.0)
        return false;
    out = v;
    return true;
}

/** Parse one `site[:[+]ARG]@trigger` token into `spec`. */
bool
parseFault(const std::string &token, FaultSpec &spec, std::string &err)
{
    std::size_t at = token.rfind('@');
    if (at == std::string::npos) {
        err = "missing '@trigger' in '" + token + "'";
        return false;
    }

    std::string head = token.substr(0, at);
    std::string trig = token.substr(at + 1);

    std::string name = head;
    std::string arg_text;
    std::size_t colon = head.find(':');
    if (colon != std::string::npos) {
        name = head.substr(0, colon);
        arg_text = head.substr(colon + 1);
        if (!arg_text.empty() && arg_text[0] == '+')
            arg_text.erase(0, 1);
    }

    const SiteInfo *info = lookupSite(name);
    if (!info) {
        err = "unknown fault site '" + name + "'";
        return false;
    }
    spec.site = info->site;

    spec.arg = info->defaultArg;
    if (colon != std::string::npos) {
        if (info->defaultArg == 0) {
            err = "site '" + name + "' takes no ':ARG'";
            return false;
        }
        if (!parseUint(arg_text, spec.arg) || spec.arg == 0) {
            err = "bad argument '" + arg_text + "' for '" + name +
                  "' (want a positive integer)";
            return false;
        }
    }

    if (trig.size() < 2) {
        err = "bad trigger '@" + trig + "' in '" + token + "'";
        return false;
    }
    char mode = trig[0];
    std::string value = trig.substr(1);
    if (mode == 'p') {
        if (!parseProb(value, spec.prob)) {
            err = "bad probability '" + value + "' in '" + token +
                  "' (want a float in [0,1])";
            return false;
        }
        spec.periodic = false;
    } else if (mode == 'n') {
        if (!parseUint(value, spec.period) || spec.period == 0) {
            err = "bad period '" + value + "' in '" + token +
                  "' (want a positive integer)";
            return false;
        }
        spec.periodic = true;
    } else {
        err = "bad trigger '@" + trig + "' in '" + token +
              "' (want @pFLOAT or @nUINT)";
        return false;
    }

    if (info->requiresPeriodic && !spec.periodic) {
        err = "site '" + name +
              "' requires a one-shot '@nN' trigger, not '@p'";
        return false;
    }
    return true;
}

/** Render one spec in canonical grammar form. */
std::string
describeSpec(const FaultSpec &spec)
{
    std::string out = siteName(spec.site);
    const SiteInfo &info =
        site_table[static_cast<std::size_t>(spec.site)];
    if (info.defaultArg != 0 && spec.arg != info.defaultArg)
        out += ":" + std::to_string(spec.arg);
    if (spec.periodic) {
        out += "@n" + std::to_string(spec.period);
    } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "@p%g", spec.prob);
        out += buf;
    }
    return out;
}

} // namespace

const char *
siteName(Site site)
{
    std::size_t i = static_cast<std::size_t>(site);
    if (i >= numSites)
        return "invalid";
    return site_table[i].name;
}

bool
isServiceSite(Site site)
{
    return site >= Site::CacheEnospc && site < Site::NumSites;
}

std::string
FaultPlan::describe() const
{
    std::string out;
    for (const FaultSpec &spec : specs) {
        if (!out.empty())
            out += ",";
        out += describeSpec(spec);
    }
    return out;
}

bool
FaultPlan::parse(const std::string &text, FaultPlan &plan,
                 std::string &err)
{
    plan.specs.clear();
    bool seen[numSites] = {};

    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        std::string token = trimmed(
            text.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos));
        pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
        if (token.empty()) {
            if (comma == std::string::npos && plan.specs.empty() &&
                trimmed(text).empty()) {
                // An all-whitespace spec string means "no injection".
                return true;
            }
            err = "empty fault token in injection spec";
            return false;
        }

        FaultSpec spec;
        if (!parseFault(token, spec, err))
            return false;
        std::size_t idx = static_cast<std::size_t>(spec.site);
        if (seen[idx]) {
            err = std::string("duplicate fault site '") +
                  siteName(spec.site) + "'";
            return false;
        }
        seen[idx] = true;
        plan.specs.push_back(spec);
    }
    return true;
}

bool
FaultPlan::parseSimPlan(const std::string &text, FaultPlan &plan,
                        std::string &err)
{
    if (!parse(text, plan, err))
        return false;
    for (const FaultSpec &spec : plan.specs) {
        if (isServiceSite(spec.site)) {
            err = std::string("site '") + siteName(spec.site) +
                  "' taps the result cache, not a simulation run; "
                  "--inject takes simulator sites only";
            return false;
        }
    }
    return true;
}

std::string
FaultPlan::grammarHelp()
{
    std::string out =
        "injection spec grammar: SITE[:[+]ARG]@pFLOAT or "
        "SITE[:[+]ARG]@nUINT, comma-separated\n"
        "valid sites:\n";
    for (const SiteInfo &info : site_table) {
        out += "  ";
        out += info.name;
        out += "  ";
        out += info.help;
        out += "\n";
    }
    out += "example: mem.latency:+200@p0.01,slice.kill@n5\n";
    return out;
}

Injector::Injector(const FaultPlan &plan)
{
    for (const FaultSpec &spec : plan.specs) {
        Slot &s = slots_[static_cast<std::size_t>(spec.site)];
        s.active = true;
        s.periodic = spec.periodic;
        s.period = spec.period;
        s.prob = spec.prob;
        s.arg = spec.arg;
        // Per-site stream: firing at one site never perturbs the
        // decisions at another, so partial plans reproduce subsets
        // of a full plan's behavior.
        std::uint64_t idx = static_cast<std::uint64_t>(spec.site);
        s.rng = Rng(plan.seed ^ (0x9e3779b97f4a7c15ull * (idx + 1)));
        enabled_ = true;
    }
}

bool
Injector::fireSlow(Slot &s)
{
    ++s.events;
    bool hit = s.periodic ? (s.events % s.period == 0)
                          : (s.rng.uniform() < s.prob);
    if (hit)
        ++s.fired;
    return hit;
}

std::uint64_t
Injector::firedTotal() const
{
    std::uint64_t total = 0;
    for (const Slot &s : slots_)
        total += s.fired;
    return total;
}

std::string
Injector::firedSummary() const
{
    std::string out;
    for (std::size_t i = 0; i < numSites; ++i) {
        if (slots_[i].fired == 0)
            continue;
        if (!out.empty())
            out += ",";
        out += site_table[i].name;
        out += "=";
        out += std::to_string(slots_[i].fired);
    }
    return out;
}

namespace
{
Injector *g_service_injector = nullptr;
} // namespace

void
setServiceInjector(Injector *inj)
{
    g_service_injector = inj;
}

bool
serviceFire(Site site)
{
    return g_service_injector && g_service_injector->fire(site);
}

} // namespace specslice::fault
