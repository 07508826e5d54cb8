/**
 * @file
 * Table 2: coverage of performance degrading events by problem
 * instructions. For each benchmark, a profiling run on the baseline
 * 4-wide machine attributes L1 misses and branch mispredictions to
 * static instructions; the Section 2.2 classifier then marks problem
 * instructions (>=10 % PDE rate, non-trivial count) and this harness
 * prints how few static instructions cover how many PDEs.
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
    std::printf("Table 2: coverage of performance degrading events by "
                "problem instructions\n");
    std::printf("(baseline 4-wide machine, %llu measured instructions "
                "per benchmark)\n\n",
                static_cast<unsigned long long>(cfg.measureInsts));

    sim::Table table({"Program", "#SI(mem)", "mem", "mis", "#SI(br)",
                      "br", "mis"});

    auto rows = pool.map(
        bench::benchWorkloadNames(), [&](const std::string &name) {
            return sim::runTable2Row(sim::MachineConfig::fourWide(),
                                     name, cfg);
        });
    for (const sim::Table2Row &row : rows) {
        const auto &p = row.problem;
        table.addRow({
            row.program,
            row.insufficientMisses
                ? "-"
                : sim::Table::count(p.problemLoads.size()),
            row.insufficientMisses ? "insuff."
                                   : sim::Table::pct(p.memOpFraction()),
            row.insufficientMisses ? "misses"
                                   : sim::Table::pct(p.missCoverage()),
            sim::Table::count(p.problemBranches.size()),
            sim::Table::pct(p.branchFraction()),
            sim::Table::pct(p.mispredCoverage()),
        });
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Columns as in the paper: #SI = static instructions "
                "marked as problem\ninstructions; mem/br = fraction of "
                "dynamic memory ops / branches they are;\nmis = fraction "
                "of all L1 misses / mispredictions they cover.\n");
    std::printf("Expected shape: a handful of static instructions cover "
                "most PDEs.\n");
    return 0;
}
