/**
 * @file
 * Ablation: how much each prediction-correlation mechanism matters.
 * Compares, on the prediction-heavy workloads:
 *   - full correlator (kills + late predictions + dead-slice stop),
 *   - without dead-slice termination (slices always run to their
 *     iteration limit: Section 6.3's overhead discussion),
 *   - with a crippled branch queue (1 prediction slot per branch:
 *     approximates a correlator without per-iteration buffering),
 * plus the correlator accuracy in each mode.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace specslice;
using bench::benchOpts;
using bench::benchParams;
using sim::speedupPct;

namespace
{

struct Mode
{
    const char *name;
    bool terminateDead;
    unsigned predsPerBranch;
};

} // namespace

int
main(int argc, char **argv)
{
    sim::JobPool pool(bench::parseBenchArgs(argc, argv));
    std::printf("Ablation: prediction correlator mechanisms "
                "(speedup over no-slice baseline, %%)\n\n");

    const Mode modes[] = {
        {"full", true, 8},
        {"no-dead-stop", false, 8},
        {"1-slot-queue", true, 1},
    };

    const std::vector<std::string> benches = {"vpr", "twolf", "gzip",
                                              "eon", "gap"};

    sim::Table table({"Program", "full", "no-dead-stop", "1-slot",
                      "wrong(full)", "wrong(1-slot)"});

    auto rows = pool.map(benches, [&](const std::string &name) {
        auto wl = workloads::buildWorkload(name, benchParams());

        sim::Simulator base_sim(sim::MachineConfig::fourWide());
        auto base = base_sim.runBaseline(wl, benchOpts());

        double spd[3] = {0, 0, 0};
        std::uint64_t wrong_full = 0, wrong_one = 0;
        for (int m = 0; m < 3; ++m) {
            sim::MachineConfig cfg = sim::MachineConfig::fourWide();
            cfg.terminateDeadSlices = modes[m].terminateDead;
            cfg.correlator.predsPerBranch = modes[m].predsPerBranch;
            sim::Simulator simr(cfg);
            auto res = simr.run(wl, benchOpts(), true);
            spd[m] = speedupPct(base, res);
            if (m == 0)
                wrong_full = res.correlatorWrong;
            if (m == 2)
                wrong_one = res.correlatorWrong;
        }

        return std::vector<std::string>{
            name, sim::Table::fmt(spd[0], 1),
            sim::Table::fmt(spd[1], 1), sim::Table::fmt(spd[2], 1),
            sim::Table::count(wrong_full),
            sim::Table::count(wrong_one)};
    });
    for (const auto &row : rows)
        table.addRow(row);

    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape: the full configuration wins; removing "
                "dead-slice termination\ncosts fetch overhead; a 1-slot "
                "queue loses loop predictions.\n");
    return 0;
}
