/**
 * @file
 * Table 4: detailed characterization of program execution with and
 * without speculative slices, for the benchmarks whose slices give
 * non-trivial speedups. Reproduces the paper's rows: instructions
 * fetched (program and slice), fork-point behaviour (taken / squashed
 * / ignored), prediction accounting (generated, mispredictions
 * removed, incorrect, late fraction), and prefetch accounting
 * (prefetches performed, misses covered, net reduction).
 *
 * The paper's "fraction of speedup from loads" was an estimate; here
 * it is derived from a decomposition pair of limit runs (perfecting
 * only the covered loads vs only the covered branches).
 */

#include <cstdio>

#include "bench_common.hh"
#include "sim/experiments.hh"

using namespace specslice;

int
main(int argc, char **argv)
{
    sim::JobPool pool(bench::parseBenchArgs(argc, argv));
    sim::ExperimentConfig cfg = bench::experimentConfig();
    std::printf("Table 4: execution with and without slices "
                "(4-wide machine)\n\n");

    sim::Table table({"Program", "fetch(K)", "misp(K)", "miss(K)",
                      "fetch+sl(K)", "slice(K)", "forks(K)", "squash",
                      "ignored", "preds(K)", "misp.rm%", "incorrect",
                      "late%", "pref(K)", "covered", "miss.rm%",
                      "ld.frac"});

    auto rows = pool.map(
        bench::benchWorkloadNames(), [&](const std::string &name) {
            return sim::runTable4Row(sim::MachineConfig::fourWide(),
                                     name, cfg);
        });
    for (const auto &maybe : rows) {
        if (!maybe)
            continue;
        const sim::Table4Row &r = *maybe;
        table.addRow({
            r.program,
            sim::Table::kilo(r.base.mainFetched),
            sim::Table::kilo(r.base.mispredictions),
            sim::Table::kilo(r.base.l1dMissesMain),
            sim::Table::kilo(r.sliced.mainFetched),
            sim::Table::kilo(r.sliced.sliceFetched),
            sim::Table::kilo(r.sliced.forks, 2),
            sim::Table::count(r.sliced.forksSquashed),
            sim::Table::count(r.sliced.forksIgnored),
            sim::Table::kilo(r.sliced.predictionsGenerated),
            sim::Table::fmt(r.mispredRemovedPct, 0),
            sim::Table::count(r.sliced.correlatorWrong),
            sim::Table::fmt(r.latePct, 0),
            sim::Table::kilo(r.sliced.slicePrefetches),
            sim::Table::count(r.sliced.coveredMisses),
            sim::Table::fmt(r.missRemovedPct, 0),
            sim::Table::fmt(r.loadFraction, 2),
        });
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape: slice fetch overhead bounded, total "
                "fetches reduced vs\nbaseline, >99%% override accuracy "
                "(tiny 'incorrect'), and a load-dominated\nfraction for "
                "mcf/perl/vpr-style workloads.\n");
    return 0;
}
