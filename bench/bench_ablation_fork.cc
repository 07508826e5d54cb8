/**
 * @file
 * Ablation: slice execution resources. Section 6.1 notes that most
 * programs benefit from more than one idle thread context ("often
 * there is one long-running background slice and a number of periodic,
 * localized slices") and that the opportunity cost of slice execution
 * depends on how hard slices compete with the main thread for fetch
 * slots. This harness sweeps the number of SMT contexts and the
 * ICOUNT main-thread bias.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace specslice;
using bench::benchOpts;
using bench::benchParams;
using sim::speedupPct;

int
main(int argc, char **argv)
{
    sim::JobPool pool(bench::parseBenchArgs(argc, argv));
    std::printf("Ablation: helper-thread contexts and ICOUNT bias "
                "(speedup over baseline, %%)\n\n");

    const std::vector<std::string> benches = {"vpr", "gzip", "twolf",
                                              "mcf"};

    {
        sim::Table table({"Program", "2 threads", "3 threads",
                          "4 threads", "ignored@2", "ignored@4"});
        auto rows = pool.map(benches, [&](const std::string &name) {
            auto wl = workloads::buildWorkload(name, benchParams());
            sim::Simulator base_sim(sim::MachineConfig::fourWide());
            auto base = base_sim.runBaseline(wl, benchOpts());

            double spd[3];
            std::uint64_t ignored2 = 0, ignored4 = 0;
            unsigned threads[3] = {2, 3, 4};
            for (int i = 0; i < 3; ++i) {
                sim::MachineConfig cfg = sim::MachineConfig::fourWide();
                cfg.numThreads = threads[i];
                sim::Simulator simr(cfg);
                auto res = simr.run(wl, benchOpts(), true);
                spd[i] = speedupPct(base, res);
                if (threads[i] == 2)
                    ignored2 = res.forksIgnored;
                if (threads[i] == 4)
                    ignored4 = res.forksIgnored;
            }
            return std::vector<std::string>{
                name, sim::Table::fmt(spd[0], 1),
                sim::Table::fmt(spd[1], 1), sim::Table::fmt(spd[2], 1),
                sim::Table::count(ignored2),
                sim::Table::count(ignored4)};
        });
        for (const auto &row : rows)
            table.addRow(row);
        std::printf("Idle helper contexts (1 / 2 / 3 helpers):\n%s\n",
                    table.render().c_str());
    }

    {
        sim::Table table({"Program", "bias 0", "bias 8", "bias 16",
                          "bias 48"});
        auto rows = pool.map(benches, [&](const std::string &name) {
            auto wl = workloads::buildWorkload(name, benchParams());
            sim::Simulator base_sim(sim::MachineConfig::fourWide());
            auto base = base_sim.runBaseline(wl, benchOpts());

            int biases[4] = {0, 8, 16, 48};
            std::vector<std::string> row = {name};
            for (int b : biases) {
                sim::MachineConfig cfg = sim::MachineConfig::fourWide();
                cfg.mainThreadFetchBias = b;
                sim::Simulator simr(cfg);
                auto res = simr.run(wl, benchOpts(), true);
                row.push_back(sim::Table::fmt(speedupPct(base, res), 1));
            }
            return row;
        });
        for (const auto &row : rows)
            table.addRow(row);
        std::printf("ICOUNT main-thread fetch bias:\n%s\n",
                    table.render().c_str());
    }

    std::printf("Expected shape: a single helper context loses forks "
                "(ignored rises); the\nbias trades slice timeliness "
                "against main-thread fetch bandwidth.\n");
    return 0;
}
