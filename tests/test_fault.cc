/**
 * @file
 * Fault-injection subsystem tests: spec-string parsing, injector
 * determinism (same seed → same run, any job count), per-site
 * behaviour with the retirement checker co-simulating (injected
 * timing faults must never corrupt architectural state), the
 * forward-progress watchdog, and the cycle-limit / checker-divergence
 * outcomes.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "sim/job_pool.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

fault::FaultPlan
mustParse(const std::string &spec, std::uint64_t seed = 1)
{
    fault::FaultPlan plan;
    std::string err;
    EXPECT_TRUE(fault::FaultPlan::parse(spec, plan, err))
        << spec << ": " << err;
    plan.seed = seed;
    return plan;
}

std::string
parseError(const std::string &spec)
{
    fault::FaultPlan plan;
    std::string err;
    EXPECT_FALSE(fault::FaultPlan::parse(spec, plan, err)) << spec;
    return err;
}

sim::Workload
vprWorkload()
{
    workloads::Params p;
    p.scale = 80'000;
    return workloads::buildVpr(p);
}

sim::RunResult
runInjected(const fault::FaultPlan &plan, bool check = false,
            std::uint64_t insts = 15'000)
{
    sim::Workload wl = vprWorkload();
    sim::Simulator machine(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.maxMainInstructions = insts;
    opts.warmupInstructions = 3'000;
    opts.faults = plan;
    opts.check = check;
    opts.checkFatal = false;  // divergence latches into the result
    return machine.run(wl, opts, true);
}

/** Architectural counters only — what determinism must preserve. */
std::string
fingerprint(const sim::RunResult &r)
{
    std::ostringstream os;
    os << r.cycles << ' ' << r.mainRetired << ' ' << r.mispredictions
       << ' ' << r.l1dMissesMain << ' ' << r.forks << ' '
       << r.correlatorUsed << ' ' << r.faultsInjected << ' '
       << r.faultSummary << '\n';
    r.detail.dump(os);
    return os.str();
}

} // namespace

// ---------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------

TEST(FaultPlanParse, AcceptsTheDocumentedGrammar)
{
    fault::FaultPlan plan =
        mustParse("mem.latency:+300@p0.01,slice.kill@n5");
    ASSERT_EQ(plan.specs.size(), 2u);

    EXPECT_EQ(plan.specs[0].site, fault::Site::MemLatency);
    EXPECT_FALSE(plan.specs[0].periodic);
    EXPECT_DOUBLE_EQ(plan.specs[0].prob, 0.01);
    EXPECT_EQ(plan.specs[0].arg, 300u);

    EXPECT_EQ(plan.specs[1].site, fault::Site::SliceKill);
    EXPECT_TRUE(plan.specs[1].periodic);
    EXPECT_EQ(plan.specs[1].period, 5u);
    EXPECT_EQ(plan.specs[1].arg, 64u);  // site default

    // describe() canonicalizes: explicit non-default args survive
    // (without the optional '+'), default args are elided.
    EXPECT_EQ(plan.describe(), "mem.latency:300@p0.01,slice.kill@n5");
}

TEST(FaultPlanParse, EverySiteRoundTrips)
{
    for (const char *spec :
         {"mem.latency@p0.5", "mem.wbstall@p1", "slice.kill:1@n2",
          "pred.flip@p0.001", "corr.drop@n3", "check.reg@n5",
          "check.store@n7", "cache.enospc@p0.5", "cache.flip@n4"}) {
        fault::FaultPlan plan = mustParse(spec);
        ASSERT_EQ(plan.specs.size(), 1u) << spec;
    }
}

TEST(FaultPlanParse, ServiceSitesAreClassified)
{
    // The result cache owns the cache.* sites; the simulator owns the
    // rest. A plan armed on simulation runs is parsed with
    // parseSimPlan, which rejects cache sites instead of accepting a
    // fault that would never fire.
    EXPECT_FALSE(fault::isServiceSite(fault::Site::MemLatency));
    EXPECT_FALSE(fault::isServiceSite(fault::Site::CheckStore));
    EXPECT_TRUE(fault::isServiceSite(fault::Site::CacheEnospc));
    EXPECT_TRUE(fault::isServiceSite(fault::Site::CacheFlip));

    fault::FaultPlan plan;
    std::string err;
    EXPECT_TRUE(fault::FaultPlan::parseSimPlan("mem.latency@p0.1",
                                               plan, err))
        << err;
    EXPECT_EQ(plan.specs.size(), 1u);

    for (const char *spec :
         {"cache.enospc@n1", "mem.latency@p0.1,cache.flip@n2"}) {
        err.clear();
        EXPECT_FALSE(fault::FaultPlan::parseSimPlan(spec, plan, err))
            << spec;
        EXPECT_NE(err.find("cache."), std::string::npos) << err;
        EXPECT_NE(err.find("simulator sites only"), std::string::npos)
            << err;
    }

    // Grammar errors still come from parse().
    EXPECT_FALSE(fault::FaultPlan::parseSimPlan("nosite@p0.5", plan,
                                                err));
    EXPECT_NE(err.find("unknown fault site"), std::string::npos);
}

TEST(FaultInjection, ServiceInjectorSingletonFiresDeterministically)
{
    // No injector installed: every service tap is a cheap no-op.
    fault::setServiceInjector(nullptr);
    EXPECT_FALSE(fault::serviceFire(fault::Site::CacheFlip));

    fault::FaultPlan plan = mustParse("cache.flip@n3", 11);
    fault::Injector inj(plan);
    fault::setServiceInjector(&inj);
    std::vector<bool> fired;
    for (int i = 0; i < 9; ++i)
        fired.push_back(fault::serviceFire(fault::Site::CacheFlip));
    // A site the plan does not arm never fires.
    EXPECT_FALSE(fault::serviceFire(fault::Site::CacheEnospc));
    fault::setServiceInjector(nullptr);

    // @n3 fires on every 3rd event.
    std::vector<bool> expect = {false, false, true, false, false,
                                true,  false, false, true};
    EXPECT_EQ(fired, expect);
}

TEST(FaultPlanParse, EmptySpecIsNoInjection)
{
    EXPECT_TRUE(mustParse("").empty());
    EXPECT_TRUE(mustParse("   ").empty());
}

TEST(FaultPlanParse, RejectsMalformedSpecs)
{
    EXPECT_NE(parseError("bogus.site@p0.1").find("bogus.site"),
              std::string::npos);
    parseError("mem.latency");          // no trigger
    parseError("mem.latency@x5");       // unknown trigger kind
    parseError("mem.latency@p1.5");     // probability > 1
    parseError("mem.latency@p-0.1");    // negative probability
    parseError("mem.latency@n0");       // period must be >= 1
    parseError("pred.flip:3@p0.1");     // site takes no argument
    parseError("check.reg@p0.5");       // checker faults need @nN
    parseError("mem.latency@p0.1,mem.latency@n5");  // duplicate site
    parseError("mem.latency@p0.1,,slice.kill@n5");  // empty token
}

// ---------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------

TEST(FaultInjection, SameSeedSameRun)
{
    fault::FaultPlan plan = mustParse("mem.latency@p0.05", 7);
    sim::RunResult a = runInjected(plan);
    sim::RunResult b = runInjected(plan);
    EXPECT_GT(a.faultsInjected, 0u);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(FaultInjection, SeedChangesTheFiringPattern)
{
    sim::RunResult a = runInjected(mustParse("mem.latency@p0.05", 1));
    sim::RunResult b = runInjected(mustParse("mem.latency@p0.05", 2));
    EXPECT_GT(a.faultsInjected, 0u);
    EXPECT_GT(b.faultsInjected, 0u);
    EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(FaultInjection, IdenticalAcrossJobCounts)
{
    // The injected sweep is as deterministic as the clean one: the
    // per-site RNG streams depend only on (seed, site, event index),
    // never on worker scheduling.
    const std::vector<std::string> specs = {
        "mem.latency@p0.05", "slice.kill:1@n2", "corr.drop@n2"};
    auto sweep = [&](unsigned jobs) {
        sim::JobPool pool(jobs);
        auto rows = pool.map(specs, [](const std::string &spec) {
            fault::FaultPlan plan;
            std::string err;
            if (!fault::FaultPlan::parse(spec, plan, err))
                throw std::runtime_error(err);
            plan.seed = 3;
            return fingerprint(runInjected(plan));
        });
        std::string all;
        for (const std::string &fp : rows)
            all += fp;
        return all;
    };
    EXPECT_EQ(sweep(1), sweep(2));
}

// ---------------------------------------------------------------
// Per-site behaviour (checker stays green under timing faults)
// ---------------------------------------------------------------

TEST(FaultInjection, TimingFaultsPerturbStatsButNotArchitecture)
{
    sim::RunResult clean = runInjected(fault::FaultPlan{}, true);
    ASSERT_FALSE(clean.checkDiverged);

    for (const char *spec : {"mem.latency:+200@p0.05",
                             "slice.kill:1@n2", "corr.drop@n2",
                             "pred.flip@p0.01"}) {
        sim::RunResult r = runInjected(mustParse(spec), true);
        EXPECT_GT(r.faultsInjected, 0u) << spec;
        EXPECT_FALSE(r.checkDiverged) << spec;
        EXPECT_EQ(r.outcome, sim::SimOutcome::Completed) << spec;
        // The whole instruction budget retires either way (retirement
        // can overshoot the budget by up to a retire-width of insts).
        EXPECT_GE(r.mainRetired + 2, 15'000u) << spec;
        EXPECT_LE(r.mainRetired, 15'008u) << spec;
        EXPECT_NE(fingerprint(r), fingerprint(clean)) << spec;
    }
}

TEST(FaultInjection, CheckerFaultInjectionIsDetected)
{
    // check.reg corrupts a compared value — the checker must see it.
    sim::RunResult r = runInjected(mustParse("check.reg@n10"), true);
    EXPECT_TRUE(r.checkDiverged);
    EXPECT_EQ(r.outcome, sim::SimOutcome::CheckerDivergence);
    EXPECT_FALSE(r.checkReport.empty());
}

// ---------------------------------------------------------------
// Watchdog and cycle limit
// ---------------------------------------------------------------

TEST(Watchdog, FiresOnLivelockWithDiagnosis)
{
    // mem.wbstall@p1 rejects every store write-back: retirement
    // livelocks on the first store with the pipeline otherwise
    // healthy. Only the watchdog can end this run.
    sim::Workload wl = vprWorkload();
    sim::Simulator machine(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.maxMainInstructions = 15'000;
    opts.faults = mustParse("mem.wbstall@p1");
    opts.watchdogCycles = 5'000;
    sim::RunResult r = machine.run(wl, opts, true);

    EXPECT_EQ(r.outcome, sim::SimOutcome::Watchdog);
    EXPECT_LT(r.mainRetired, 15'000u);
    ASSERT_FALSE(r.diagnosis.empty());
    // The diagnosis names the stall duration, the ROB head (the stuck
    // store), memory state, and the injection that caused it.
    EXPECT_NE(r.diagnosis.find("retired nothing for 5000 cycles"),
              std::string::npos)
        << r.diagnosis;
    EXPECT_NE(r.diagnosis.find("rob head"), std::string::npos);
    EXPECT_NE(r.diagnosis.find("retire_wb_stalls"), std::string::npos);
    EXPECT_NE(r.diagnosis.find("mem.wbstall"), std::string::npos);
}

TEST(Watchdog, DisabledWatchdogFallsThroughToCycleLimit)
{
    sim::Workload wl = vprWorkload();
    sim::Simulator machine(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.maxMainInstructions = 15'000;
    opts.faults = mustParse("mem.wbstall@p1");
    opts.watchdogEnabled = false;
    opts.maxCycles = 30'000;
    sim::RunResult r = machine.run(wl, opts, true);
    EXPECT_EQ(r.outcome, sim::SimOutcome::CycleLimit);
    EXPECT_TRUE(r.diagnosis.empty());
}

TEST(Watchdog, CleanRunCompletesUntouched)
{
    sim::Workload wl = vprWorkload();
    sim::Simulator machine(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.maxMainInstructions = 15'000;
    opts.watchdogCycles = 5'000;
    sim::RunResult r = machine.run(wl, opts, true);
    EXPECT_EQ(r.outcome, sim::SimOutcome::Completed);
    EXPECT_GE(r.mainRetired + 1, 15'000u);
    EXPECT_EQ(r.faultsInjected, 0u);
}

TEST(CycleLimit, TinyLimitYieldsCycleLimitOutcome)
{
    sim::Workload wl = vprWorkload();
    sim::Simulator machine(sim::MachineConfig::fourWide());
    sim::RunOptions opts;
    opts.maxMainInstructions = 1'000'000;  // unreachable
    opts.maxCycles = 2'000;
    sim::RunResult r = machine.run(wl, opts, true);
    EXPECT_EQ(r.outcome, sim::SimOutcome::CycleLimit);
    EXPECT_LE(r.cycles, 2'000u);
}

TEST(Outcome, NamesAreStable)
{
    EXPECT_STREQ(sim::outcomeName(sim::SimOutcome::Completed),
                 "completed");
    EXPECT_STREQ(sim::outcomeName(sim::SimOutcome::CycleLimit),
                 "cycle_limit");
    EXPECT_STREQ(sim::outcomeName(sim::SimOutcome::Watchdog),
                 "watchdog");
    EXPECT_STREQ(sim::outcomeName(sim::SimOutcome::CheckerDivergence),
                 "checker_divergence");
    EXPECT_STREQ(sim::outcomeName(sim::SimOutcome::Fault), "fault");
}
