/**
 * @file
 * The paper's evaluation in one sweep: Table 2 (PDE coverage by the
 * Section 2.2 problem instructions), Figure 1 (baseline vs problem-
 * perfect vs all-perfect IPC at both widths), Table 3 (the hand
 * slices), Figure 11 (slice and constrained-limit speedups) and
 * Table 4 (execution with and without slices), in that order.
 * sim::PaperPlan runs each distinct simulation they need once; each
 * artifact below is a function of its results. Also writes
 * BENCH_paper.json, one record per distinct run. EXPERIMENTS.md
 * records the paper's shapes next to the measured ones.
 */

#include <chrono>
#include <cstdio>

#include "bench_common.hh"
#include "sim/experiments.hh"

using namespace specslice;
using sim::PaperRole;

namespace
{

/** Percent of `before` that `after` removed (0 when before is 0). */
double
pctRemoved(std::uint64_t before, std::uint64_t after)
{
    return before ? 100.0 *
                        (static_cast<double>(before) -
                         static_cast<double>(after)) /
                        static_cast<double>(before)
                  : 0.0;
}

void
printTable2(const sim::PaperPlan &plan)
{
    std::printf("Table 2: coverage of performance degrading events by "
                "problem instructions\n");
    std::printf("(baseline 4-wide machine, %llu measured instructions "
                "per benchmark)\n\n",
                static_cast<unsigned long long>(
                    plan.config().measureInsts));

    sim::Table table({"Program", "#SI(mem)", "mem", "mis", "#SI(br)",
                      "br", "mis"});
    for (const std::string &name : plan.workloadNames()) {
        const profile::ProblemInstructions p = plan.problems(name);
        // Too few misses to report memory-side numbers (eon's case).
        const bool insufficient = p.l1Misses < 200;
        table.addRow({
            name,
            insufficient ? "-" : sim::Table::count(p.problemLoads.size()),
            insufficient ? "insuff." : sim::Table::pct(p.memOpFraction()),
            insufficient ? "misses" : sim::Table::pct(p.missCoverage()),
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
}

void
printFigure1(const sim::PaperPlan &plan)
{
    std::printf("Figure 1: IPC of baseline vs problem-instructions-"
                "perfect vs all-perfect\n");
    std::printf("Machine parameters per Table 1 (4-wide: 128-entry "
                "window, 2 mem ports;\n8-wide: 256-entry window, 4 mem "
                "ports; 14-stage pipeline; 64KB L1s, 2MB L2).\n\n");

    sim::Table table({"Program", "W", "baseline", "prob.perfect",
                      "all perfect"});
    for (const std::string &name : plan.workloadNames()) {
        for (bool wide : {false, true}) {
            auto ipc = [&](PaperRole role) {
                return sim::Table::fmt(plan.result(name, role, wide).ipc());
            };
            table.addRow({wide ? "" : name, wide ? "8" : "4",
                          ipc(PaperRole::Baseline),
                          ipc(PaperRole::ProblemPerfect),
                          ipc(PaperRole::AllPerfect)});
        }
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape: problem-instruction-perfect recovers "
                "much of the baseline\nvs all-perfect gap; 8-wide "
                "benefits more than 4-wide.\n");
}

std::string
inLoop(unsigned total, unsigned in_loop)
{
    std::string s = std::to_string(total);
    if (in_loop)
        s += " (" + std::to_string(in_loop) + ")";
    return s;
}

void
printTable3(const sim::PaperPlan &plan)
{
    std::printf("Table 3: characterization of the speculative slices\n");
    std::printf("(static size, live-ins, prefetches, predictions, kills; "
                "loop contents in parens)\n\n");

    sim::Table table({"Prog.", "slice", "static", "live-ins", "pref",
                      "pred", "kills", "max iter"});
    for (const std::string &name : plan.workloadNames()) {
        const sim::Workload &wl = plan.workload(name);
        if (wl.slices.empty()) {
            table.addRow({name, "(none: Sec. 6.2)", "-", "-", "-", "-",
                          "-", "-"});
            continue;
        }
        for (const auto &sd : wl.slices) {
            bool has_loop = sd.maxLoopIters > 0;
            unsigned pref =
                static_cast<unsigned>(sd.prefetchLoadPcs.size());
            unsigned pred = static_cast<unsigned>(sd.pgis.size());
            table.addRow({
                name,
                sd.name,
                inLoop(sd.staticSize, sd.staticSizeInLoop),
                sim::Table::count(sd.liveIns.size()),
                has_loop ? inLoop(pref, pref) : sim::Table::count(pref),
                has_loop ? inLoop(pred, pred) : sim::Table::count(pred),
                sim::Table::count(sd.killCount()),
                has_loop ? sim::Table::count(sd.maxLoopIters) : "-",
            });
        }
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape (paper): slices of ~4-31 static "
                "instructions, <=4 live-ins,\na prediction or prefetch "
                "every 2-4 slice instructions, 1-3 kills.\n");
}

void
printFigure11(const sim::PaperPlan &plan)
{
    std::printf("Figure 11: speedup of slices and of the constrained "
                "limit study (4-wide)\n\n");

    sim::Table table({"Program", "base IPC", "slice IPC", "slice %",
                      "limit %"});
    for (const std::string &name : plan.workloadNames()) {
        const sim::RunResult &base = plan.result(name, PaperRole::Baseline);
        const sim::RunResult &sliced = plan.result(name, PaperRole::Sliced);
        table.addRow({
            name,
            sim::Table::fmt(base.ipc()),
            sim::Table::fmt(sliced.ipc()),
            sim::Table::fmt(sim::speedupPct(base, sliced), 1),
            sim::Table::fmt(
                sim::speedupPct(base, plan.result(name, PaperRole::Limit)),
                1),
        });
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape: speedups up to tens of percent, slice "
                "on the order of half\nthe limit; ~0%% for gcc/parser/"
                "vortex (slice-construction failures) and crafty.\n");
}

void
printTable4(const sim::PaperPlan &plan)
{
    std::printf("Table 4: execution with and without slices "
                "(4-wide machine)\n\n");

    sim::Table table({"Program", "fetch(K)", "misp(K)", "miss(K)",
                      "fetch+sl(K)", "slice(K)", "forks(K)", "squash",
                      "ignored", "preds(K)", "misp.rm%", "incorrect",
                      "late%", "pref(K)", "covered", "miss.rm%",
                      "ld.frac"});
    for (const std::string &name : plan.workloadNames()) {
        if (!plan.inTable4(name))
            continue;
        const sim::RunResult &b = plan.result(name, PaperRole::Baseline);
        const sim::RunResult &s = plan.result(name, PaperRole::Sliced);
        // Late predictions, as a share of the ones bound to a branch.
        const std::uint64_t binds = s.latePredictions + s.correlatorUsed;
        const double late_pct =
            binds ? 100.0 * static_cast<double>(s.latePredictions) /
                        static_cast<double>(binds)
                  : 0.0;
        table.addRow({
            name,
            sim::Table::kilo(b.mainFetched),
            sim::Table::kilo(b.mispredictions),
            sim::Table::kilo(b.l1dMissesMain),
            sim::Table::kilo(s.mainFetched),
            sim::Table::kilo(s.sliceFetched),
            sim::Table::kilo(s.forks, 2),
            sim::Table::count(s.forksSquashed),
            sim::Table::count(s.forksIgnored),
            sim::Table::kilo(s.predictionsGenerated),
            sim::Table::fmt(pctRemoved(b.mispredictions, s.mispredictions),
                            0),
            sim::Table::count(s.correlatorWrong),
            sim::Table::fmt(late_pct, 0),
            sim::Table::kilo(s.slicePrefetches),
            sim::Table::count(s.coveredMisses),
            sim::Table::fmt(pctRemoved(b.l1dMissesMain, s.l1dMissesMain),
                            0),
            sim::Table::fmt(plan.loadFraction(name), 2),
        });
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape: slice fetch overhead bounded, total "
                "fetches reduced vs\nbaseline, >99%% override accuracy "
                "(tiny 'incorrect'), and a load-dominated\nfraction for "
                "mcf/perl/vpr-style workloads.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    sim::JobPool pool(bench::parseBenchArgs(argc, argv));
    sim::PaperPlan plan(bench::experimentConfig(),
                        bench::benchWorkloadNames());
    const auto t0 = std::chrono::steady_clock::now();
    plan.run(pool);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    printTable2(plan);
    printFigure1(plan);
    printTable3(plan);
    printFigure11(plan);
    printTable4(plan);

    // stderr, so stdout is the five artifacts alone.
    const std::string path =
        bench::writeBenchJson("paper", plan.records(), wall);
    std::fprintf(stderr, "wrote %s (%zu distinct runs)\n", path.c_str(),
                 plan.records().size());
    return 0;
}
