/**
 * @file
 * The detailed core does not allocate per instruction in its steady
 * state. A counting global operator new measures every kernel at two
 * measured lengths behind the same warm-up: set-up (workload image,
 * machine construction, warm-up growth of the window and tables) is
 * the same in both runs, so the difference in allocations over the
 * difference in fetched instructions is the per-instruction cost.
 *
 * This binary replaces the global allocator; sanitizer runtimes supply
 * their own, so it is built only in unsanitized builds.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "sim/experiments.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align *
                                                  align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

// The array and nothrow forms forward to these by default.
void *
operator new(std::size_t n)
{
    return countedAlloc(n, 0);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    return countedAlloc(n, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace specslice;

namespace
{

constexpr std::uint64_t warmupInsts = 5'000;
constexpr std::uint64_t shortInsts = 10'000;
constexpr std::uint64_t longInsts = 40'000;

struct Sample
{
    std::uint64_t allocations = 0;
    std::uint64_t fetched = 0;  ///< main + slice, measured region
};

Sample
measure(const sim::Workload &wl, const sim::RunOptions &opts,
        bool with_slices)
{
    sim::Simulator simr(sim::MachineConfig::fourWide());
    const std::uint64_t before = allocations.load();
    const sim::RunResult r = simr.run(wl, opts, with_slices);
    const std::uint64_t after = allocations.load();
    EXPECT_EQ(r.outcome, sim::SimOutcome::Completed);
    return {after - before, r.mainFetched + r.sliceFetched};
}

} // namespace

/** (workload, "baseline" | "slices" | "limit") */
class SteadyStateAllocations
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(SteadyStateAllocations, PerFetchedInstruction)
{
    const auto &[name, mode] = GetParam();
    sim::ExperimentConfig cfg;
    cfg.warmupInsts = warmupInsts;
    cfg.measureInsts = longInsts;
    const sim::Workload wl =
        sim::buildBenchWorkload(name, cfg.seed, cfg.runOptions());
    sim::RunOptions opts =
        mode == "limit" ? sim::limitOptions(wl, cfg.runOptions())
                        : cfg.runOptions();
    const bool with_slices = mode == "slices";

    // A first run absorbs one-time process set-up (static tables,
    // lazily built state) so both measured runs start alike.
    opts.maxMainInstructions = shortInsts;
    measure(wl, opts, with_slices);
    const Sample shorter = measure(wl, opts, with_slices);
    opts.maxMainInstructions = longInsts;
    const Sample longer = measure(wl, opts, with_slices);

    ASSERT_GT(longer.fetched, shorter.fetched);
    const auto extra_allocs = static_cast<std::int64_t>(
        longer.allocations - shorter.allocations);
    const std::uint64_t extra_fetched = longer.fetched - shorter.fetched;
    const double per_inst = static_cast<double>(extra_allocs) /
                            static_cast<double>(extra_fetched);
    RecordProperty("marginal_allocations",
                   std::to_string(extra_allocs));
    RecordProperty("marginal_fetched", std::to_string(extra_fetched));
    std::printf("%s %s: %lld allocations over %llu extra fetched "
                "instructions (%.4f per instruction; runs allocated "
                "%llu and %llu)\n",
                name.c_str(), mode.c_str(),
                static_cast<long long>(extra_allocs),
                static_cast<unsigned long long>(extra_fetched), per_inst,
                static_cast<unsigned long long>(shorter.allocations),
                static_cast<unsigned long long>(longer.allocations));

    // What remains is growth that fades with run length: window slots
    // whose dependents buffers are reached or outgrown for the first
    // time, ring and table doublings, and the register-file copy of
    // each late-bound branch. Slices widen the live VN# span, so they
    // keep more of it.
    const double bound = with_slices ? 0.15 : 0.05;
    EXPECT_LE(per_inst, bound);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SteadyStateAllocations,
    ::testing::Combine(::testing::ValuesIn(workloads::allWorkloadNames()),
                       ::testing::Values("baseline", "slices", "limit")),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });
