/**
 * @file
 * Figure 1: performance impact of problem instructions. For each
 * benchmark and both machine widths, prints the baseline IPC, the IPC
 * with the problem instructions "magically" perfected (per-static-
 * instruction perfect cache and branch prediction), and the IPC with
 * everything perfect. The reproduction target is the paper's shape:
 * perfecting the problem instructions recovers much of the gap to the
 * all-perfect machine, and the 8-wide machine gains more.
 */

#include <cstdio>

#include "bench_common.hh"
#include "sim/experiments.hh"

using namespace specslice;

namespace
{

/** One (benchmark, machine width) cell of the figure. */
struct Config
{
    std::string name;
    bool wide = false;
};

} // namespace

int
main(int argc, char **argv)
{
    sim::JobPool pool(bench::parseBenchArgs(argc, argv));
    sim::ExperimentConfig cfg = bench::experimentConfig();
    std::printf("Figure 1: IPC of baseline vs problem-instructions-"
                "perfect vs all-perfect\n");
    std::printf("Machine parameters per Table 1 (4-wide: 128-entry "
                "window, 2 mem ports;\n8-wide: 256-entry window, 4 mem "
                "ports; 14-stage pipeline; 64KB L1s, 2MB L2).\n\n");

    sim::Table table({"Program", "W", "baseline", "prob.perfect",
                      "all perfect"});

    // The two widths of one benchmark are independent runs, so each
    // gets its own job; results come back in submission order, which
    // keeps the 4/8 row pairing.
    std::vector<Config> configs;
    for (const std::string &name : bench::benchWorkloadNames()) {
        configs.push_back({name, false});
        configs.push_back({name, true});
    }
    auto rows = pool.map(configs, [&](const Config &c) {
        return sim::runFigure1Row(c.wide
                                      ? sim::MachineConfig::eightWide()
                                      : sim::MachineConfig::fourWide(),
                                  c.name, cfg);
    });
    for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
        const sim::Figure1Row &r4 = rows[i];
        const sim::Figure1Row &r8 = rows[i + 1];
        table.addRow({r4.program, "4", sim::Table::fmt(r4.baselineIpc),
                      sim::Table::fmt(r4.problemPerfectIpc),
                      sim::Table::fmt(r4.allPerfectIpc)});
        table.addRow({"", "8", sim::Table::fmt(r8.baselineIpc),
                      sim::Table::fmt(r8.problemPerfectIpc),
                      sim::Table::fmt(r8.allPerfectIpc)});
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape: problem-instruction-perfect recovers "
                "much of the baseline\nvs all-perfect gap; 8-wide "
                "benefits more than 4-wide.\n");
    return 0;
}
