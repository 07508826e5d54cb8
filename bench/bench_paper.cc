/**
 * @file
 * The paper's evaluation in one sweep: Table 2 (PDE coverage by the
 * Section 2.2 problem instructions), Figure 1 (baseline vs problem-
 * perfect vs all-perfect IPC at both widths), Table 3 (the hand
 * slices), Figure 11 (slice and constrained-limit speedups), Table 4
 * (execution with and without slices), then the Section 6.1 and 6.3
 * ablations (correlator mechanisms, helper contexts and ICOUNT bias,
 * overhead reduction), in that order. sim::PaperPlan runs each
 * distinct simulation they need once; each artifact below is a
 * function of its results. Also writes BENCH_paper.json, one record
 * per distinct run. EXPERIMENTS.md records the paper's shapes next to
 * the measured ones.
 */

#include <chrono>
#include <cstdio>

#include "bench_common.hh"
#include "sim/experiments.hh"
#include "slice/validator.hh"

using namespace specslice;
using sim::PaperAblation;
using sim::PaperMachine;
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
        for (PaperMachine m : {PaperMachine::FourWide,
                               PaperMachine::EightWide}) {
            const bool wide = m == PaperMachine::EightWide;
            auto ipc = [&](PaperRole role) {
                return sim::Table::fmt(plan.result(name, role, m).ipc());
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
                inLoop(sd.staticSize,
                       slice::loopStaticSize(sd, wl.program)),
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

/** The slice speedup on machine m over the 4-wide baseline, as a
 *  table cell. */
std::string
slicePct(const sim::PaperPlan &plan, const std::string &name,
         PaperMachine m = PaperMachine::FourWide)
{
    return sim::Table::fmt(
        sim::speedupPct(plan.result(name, PaperRole::Baseline),
                        plan.result(name, PaperRole::Sliced, m)),
        1);
}

/**
 * How much each prediction-correlation mechanism matters: the full
 * correlator, one without dead-slice termination (slices run to their
 * iteration limit: Section 6.3's overhead discussion) and one with a
 * single prediction slot per branch (a correlator without
 * per-iteration buffering), with the correlator's wrong predictions.
 */
void
printCorrelatorAblation(const sim::PaperPlan &plan)
{
    std::printf("Ablation: prediction correlator mechanisms "
                "(speedup over no-slice baseline, %%)\n\n");

    sim::Table table({"Program", "full", "no-dead-stop", "1-slot",
                      "wrong(full)", "wrong(1-slot)"});
    for (const std::string &name :
         plan.ablationWorkloads(PaperAblation::Correlator)) {
        auto wrong = [&](PaperMachine m) {
            return sim::Table::count(
                plan.result(name, PaperRole::Sliced, m).correlatorWrong);
        };
        table.addRow({name, slicePct(plan, name),
                      slicePct(plan, name, PaperMachine::NoDeadStop),
                      slicePct(plan, name, PaperMachine::OneSlotQueue),
                      wrong(PaperMachine::FourWide),
                      wrong(PaperMachine::OneSlotQueue)});
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape: the full configuration wins; removing "
                "dead-slice termination\ncosts fetch overhead; a 1-slot "
                "queue loses loop predictions.\n");
}

/**
 * Section 6.1: most programs gain from more than one idle context
 * ("often there is one long-running background slice and a number of
 * periodic, localized slices"), and slices cost the main thread fetch
 * slots as far as ICOUNT lets them compete.
 */
void
printForkAblation(const sim::PaperPlan &plan)
{
    std::printf("Ablation: helper-thread contexts and ICOUNT bias "
                "(speedup over baseline, %%)\n\n");
    const std::vector<std::string> names =
        plan.ablationWorkloads(PaperAblation::Fork);

    sim::Table contexts({"Program", "2 threads", "3 threads",
                         "4 threads", "ignored@2", "ignored@4"});
    for (const std::string &name : names) {
        auto ignored = [&](PaperMachine m) {
            return sim::Table::count(
                plan.result(name, PaperRole::Sliced, m).forksIgnored);
        };
        contexts.addRow({name,
                         slicePct(plan, name, PaperMachine::TwoContexts),
                         slicePct(plan, name, PaperMachine::ThreeContexts),
                         slicePct(plan, name),
                         ignored(PaperMachine::TwoContexts),
                         ignored(PaperMachine::FourWide)});
    }
    std::printf("Idle helper contexts (1 / 2 / 3 helpers):\n%s\n",
                contexts.render().c_str());

    sim::Table bias({"Program", "bias 0", "bias 8", "bias 16",
                     "bias 48"});
    for (const std::string &name : names)
        bias.addRow({name, slicePct(plan, name, PaperMachine::Bias0),
                     slicePct(plan, name, PaperMachine::Bias8),
                     slicePct(plan, name),
                     slicePct(plan, name, PaperMachine::Bias48)});
    std::printf("ICOUNT main-thread fetch bias:\n%s\n",
                bias.render().c_str());

    std::printf("Expected shape: a single helper context loses forks "
                "(ignored rises); the\nbias trades slice timeliness "
                "against main-thread fetch bandwidth.\n");
}

/**
 * Section 6.3's overhead reduction, made measurable: "gating the fork
 * using confidence" and "having dedicated resources to execute the
 * slice". The interesting rows are the overhead-bound workloads
 * (bzip2, crafty), where shared-resource slices lose, and gzip, whose
 * hoisted fork forks many useless (literal-position) slices.
 */
void
printOverheadAblation(const sim::PaperPlan &plan)
{
    std::printf("Ablation: Section 6.3 overhead reduction "
                "(speedup over no-slice baseline, %%)\n\n");

    sim::Table table({"Program", "shared", "fork-gated", "dedicated",
                      "gated forks", "slice fetch% (shared)",
                      "(dedicated)"});
    for (const std::string &name :
         plan.ablationWorkloads(PaperAblation::Overhead)) {
        auto fetch_pct = [&](PaperMachine m) {
            const sim::RunResult &r =
                plan.result(name, PaperRole::Sliced, m);
            const std::uint64_t total = r.mainFetched + r.sliceFetched;
            return sim::Table::fmt(
                total ? 100.0 * static_cast<double>(r.sliceFetched) /
                            static_cast<double>(total)
                      : 0.0,
                0);
        };
        table.addRow({
            name,
            slicePct(plan, name),
            slicePct(plan, name, PaperMachine::ForkGated),
            slicePct(plan, name, PaperMachine::Dedicated),
            sim::Table::count(
                plan.result(name, PaperRole::Sliced, PaperMachine::ForkGated)
                    .detail.get("forks_gated")),
            fetch_pct(PaperMachine::FourWide),
            fetch_pct(PaperMachine::Dedicated),
        });
    }

    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Expected shape: dedicated resources flip the overhead-bound "
        "benchmarks (bzip2)\npositive, though they can over-supply "
        "slices that then contend for the shared\ncache ports (twolf). "
        "The per-PC fork gate trims useless forks cheaply, but a\n"
        "fork point whose slices are useful only in some contexts "
        "(gzip's hoisted fork\ncovers literal positions too) gets "
        "over-gated — the paper's observation that\ncontext-dependent "
        "behaviour needs the fork hoisted into the distinguishing\n"
        "caller, or real confidence hardware [8].\n");
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
    printCorrelatorAblation(plan);
    printForkAblation(plan);
    printOverheadAblation(plan);

    // stderr, so stdout is the artifacts alone.
    const std::string path =
        bench::writeBenchJson("paper", plan.records(), wall);
    std::fprintf(stderr, "wrote %s (%zu distinct runs)\n", path.c_str(),
                 plan.records().size());
    return 0;
}
