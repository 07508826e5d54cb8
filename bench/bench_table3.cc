/**
 * @file
 * Table 3: characterization of the hand-constructed slices. Static
 * size (instructions in the loop in parentheses), live-in register
 * count, prefetching loads, predictions generated, kill PCs used for
 * correlation, and the profile-derived maximum iteration count.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace specslice;

namespace
{

std::string
inLoop(unsigned total, unsigned in_loop)
{
    std::string s = std::to_string(total);
    if (in_loop)
        s += " (" + std::to_string(in_loop) + ")";
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::JobPool pool(bench::parseBenchArgs(argc, argv));
    std::printf("Table 3: characterization of the speculative slices\n");
    std::printf("(static size, live-ins, prefetches, predictions, kills; "
                "loop contents in parens)\n\n");

    sim::Table table({"Prog.", "slice", "static", "live-ins", "pref",
                      "pred", "kills", "max iter"});

    // Workload construction (not simulation) dominates here; each
    // benchmark builds in its own job and returns its rendered rows.
    auto row_groups = pool.map(
        bench::benchWorkloadNames(), [&](const std::string &name) {
            std::vector<std::vector<std::string>> rows;
            auto wl =
                workloads::buildWorkload(name, bench::benchParams());
            if (wl.slices.empty()) {
                rows.push_back({name, "(none: Sec. 6.2)", "-", "-", "-",
                                "-", "-", "-"});
                return rows;
            }
            for (const auto &sd : wl.slices) {
                bool has_loop = sd.maxLoopIters > 0;
                unsigned pref = static_cast<unsigned>(
                    sd.prefetchLoadPcs.size());
                unsigned pred = static_cast<unsigned>(sd.pgis.size());
                rows.push_back({
                    name,
                    sd.name,
                    inLoop(sd.staticSize, sd.staticSizeInLoop),
                    sim::Table::count(sd.liveIns.size()),
                    has_loop ? inLoop(pref, pref)
                             : sim::Table::count(pref),
                    has_loop ? inLoop(pred, pred)
                             : sim::Table::count(pred),
                    sim::Table::count(sd.killCount()),
                    has_loop ? sim::Table::count(sd.maxLoopIters)
                             : "-",
                });
            }
            return rows;
        });
    for (const auto &rows : row_groups) {
        for (const auto &row : rows)
            table.addRow(row);
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape (paper): slices of ~4-31 static "
                "instructions, <=4 live-ins,\na prediction or prefetch "
                "every 2-4 slice instructions, 1-3 kills.\n");
    return 0;
}
