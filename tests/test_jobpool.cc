/**
 * @file
 * JobPool tests: item-order result delivery, exception capture and
 * rethrow, the jobs==1 inline degenerate case, SS_JOBS handling, job
 * log tags, failing jobs under ScopedThrowErrors, and the property the
 * parallel experiment engine rests on — the paper plan's sweep
 * produces identical statistics at any job count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/failure.hh"
#include "common/logging.hh"
#include "sim/experiments.hh"
#include "sim/job_pool.hh"

using namespace specslice;

TEST(JobPool, MapPreservesSubmissionOrder)
{
    sim::JobPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);

    std::vector<int> items;
    for (int i = 0; i < 200; ++i)
        items.push_back(i);
    auto out = pool.map(items, [](int v) { return v * 3 + 1; });
    ASSERT_EQ(out.size(), items.size());
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(out[i], i * 3 + 1);
}

TEST(JobPool, SingleJobRunsInlineOnSubmittingThread)
{
    sim::JobPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);

    const std::thread::id self = std::this_thread::get_id();
    auto out = pool.map(std::vector<int>{1, 2, 3}, [&](int v) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        return v + 10;
    });
    EXPECT_EQ(out, (std::vector<int>{11, 12, 13}));
}

TEST(JobPool, MapRunsEveryItemOnceWhenOversubscribed)
{
    // More items than threads: each item runs exactly once, on at most
    // jobs() threads (the caller's included).
    sim::JobPool pool(2);
    std::vector<int> items(64);
    for (int i = 0; i < 64; ++i)
        items[i] = i;
    std::vector<std::atomic<int>> runs(items.size());
    std::mutex mutex;
    std::set<std::thread::id> threads;
    pool.map(items, [&](int v) {
        ++runs[v];
        std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
        return v;
    });
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].load(), 1) << "item " << i;
    EXPECT_LE(threads.size(), 2u);
}

TEST(JobPool, ExceptionPropagatesAndPoolStaysUsable)
{
    sim::JobPool pool(4);
    const std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};

    // Every job runs; the first failure in item order is rethrown.
    std::atomic<int> ran{0};
    try {
        pool.map(items, [&](int v) -> int {
            ++ran;
            if (v == 3 || v == 6)
                throw std::runtime_error("boom " + std::to_string(v));
            return v;
        });
        FAIL() << "expected the job's exception to be rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 3");
    }
    EXPECT_EQ(ran.load(), 8);

    // The failed batch must not poison the pool.
    auto ok = pool.map(items, [](int v) { return v * 2; });
    ASSERT_EQ(ok.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(ok[i], items[i] * 2);
}

TEST(JobPool, ExceptionPropagatesInline)
{
    sim::JobPool pool(1);
    EXPECT_THROW(pool.map(std::vector<int>{1},
                          [](int) -> int {
                              throw std::logic_error("inline");
                          }),
                 std::logic_error);
}

TEST(JobPool, DefaultJobsHonorsEnvironment)
{
    ::setenv("SS_JOBS", "3", 1);
    EXPECT_EQ(sim::JobPool::defaultJobs(), 3u);
    ::unsetenv("SS_JOBS");
    EXPECT_GE(sim::JobPool::defaultJobs(), 1u);

    sim::JobPool dflt;  // jobs = 0 selects defaultJobs()
    EXPECT_GE(dflt.jobs(), 1u);
}

namespace
{

/**
 * Every simulated statistic of every run of a paper plan, serialized
 * in run order. Wall-clock style fields are excluded by construction:
 * RunResult carries only architectural counters.
 */
std::string
runSweep(unsigned jobs)
{
    sim::ExperimentConfig cfg;
    cfg.measureInsts = 4000;
    cfg.warmupInsts = 1000;
    cfg.seed = 1;

    sim::PaperPlan plan(cfg, {"vpr", "gzip"});
    sim::JobPool pool(jobs);
    plan.run(pool);

    std::ostringstream os;
    for (const sim::WorkloadPerf &p : plan.records()) {
        const sim::RunResult &r = p.result;
        os << p.name << '\n'
           << r.cycles << ' ' << r.mainRetired << ' ' << r.mispredictions
           << ' ' << r.l1dMissesMain << ' ' << r.forks << ' '
           << r.correlatorUsed << '\n';
        r.detail.dump(os);
    }
    return os.str();
}

} // namespace

TEST(JobPool, Figure11SweepIsIdenticalAcrossJobCounts)
{
    std::string serial = runSweep(1);
    std::string parallel = runSweep(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(JobPool, LogTagsCountAcrossBatches)
{
    sim::JobPool pool(2);
    const std::vector<int> items = {0, 1};
    testing::internal::CaptureStderr();
    for (int batch = 0; batch < 2; ++batch)
        pool.map(items, [&](int v) {
            SS_INFORM("batch ", batch, " item ", v);
            return v;
        });
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "[j0] info: batch 0 item 0\n"
              "[j1] info: batch 0 item 1\n"
              "[j2] info: batch 1 item 0\n"
              "[j3] info: batch 1 item 1\n");
}

// ---------------------------------------------------------------
// Failing jobs: a sweep that must survive one installs
// ScopedThrowErrors inside the job and catches the SimError there.
// ---------------------------------------------------------------

TEST(JobPool, PanicBecomesCatchableSimError)
{
    // SS_PANIC inside a throw-mode job must land in that job's result,
    // not kill the process.
    sim::JobPool pool(2);
    const std::vector<int> items = {0, 1, 2};
    auto out = pool.map(items, [](int v) -> std::string {
        try {
            ScopedThrowErrors throwing;
            if (v == 1)
                SS_PANIC("injected panic in job ", v);
            return "ok";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Panic);
            return e.what();
        }
    });
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], "ok");
    EXPECT_EQ(out[2], "ok");
    EXPECT_NE(out[1].find("panic"), std::string::npos);
    EXPECT_NE(out[1].find("injected panic in job 1"), std::string::npos);
}

TEST(JobPool, SweepSurvivesOneFatalConfiguration)
{
    // The acceptance shape: an 8-job sweep where one configuration
    // dies must complete the other seven and report the failure.
    sim::JobPool pool(8);
    std::vector<int> items;
    for (int i = 0; i < 8; ++i)
        items.push_back(i);
    auto out = pool.map(items, [](int v) -> std::optional<int> {
        try {
            ScopedThrowErrors throwing;
            if (v == 5)
                SS_FATAL("bad configuration ", v);
            return v + 100;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Fatal);
            EXPECT_NE(std::string(e.what()).find("fatal"),
                      std::string::npos);
            return std::nullopt;
        }
    });
    ASSERT_EQ(out.size(), items.size());
    for (int i = 0; i < 8; ++i) {
        if (i == 5)
            EXPECT_FALSE(out[i].has_value());
        else
            EXPECT_EQ(out[i], i + 100);
    }

    // The pool stays usable after the failure.
    auto again = pool.map(items, [](int v) { return v; });
    EXPECT_EQ(again, items);
}
