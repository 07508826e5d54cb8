/**
 * @file
 * Figure 11: speedup of slice-assisted execution and of the
 * constrained limit study (magically perfecting exactly the problem
 * instructions the slices cover), both relative to the baseline 4-wide
 * machine. The paper's shape: speedups between ~1 % and 43 % with the
 * slice case on the order of half the limit case; gcc, parser and
 * vortex show no significant speedup (Section 6.2), and crafty sees
 * none (footnote 3).
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
    std::printf("Figure 11: speedup of slices and of the constrained "
                "limit study (4-wide)\n\n");

    sim::Table table({"Program", "base IPC", "slice IPC", "slice %",
                      "limit %"});

    auto rows = pool.map(
        bench::benchWorkloadNames(), [&](const std::string &name) {
            return sim::runFigure11Row(sim::MachineConfig::fourWide(),
                                       name, cfg);
        });
    for (const sim::Figure11Row &row : rows) {
        table.addRow({
            row.program,
            sim::Table::fmt(row.base.ipc()),
            sim::Table::fmt(row.sliced.ipc()),
            sim::Table::fmt(row.slicePct(), 1),
            sim::Table::fmt(row.limitPct(), 1),
        });
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape: speedups up to tens of percent, slice "
                "on the order of half\nthe limit; ~0%% for gcc/parser/"
                "vortex (slice-construction failures) and crafty.\n");
    return 0;
}
