/**
 * @file
 * Scenario: Section 3.3 — the automatable-transformation matrix and
 * the leave-one-out sensitivity study. Array privatization is the
 * load-bearing transformation (largest suite harmonic-mean loss when
 * disabled), matching Section 3.2's loop-local placement discussion.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/cedar.hh"
#include "perfect/restructure.hh"
#include "valid/scenario.hh"

namespace cedar::valid {

namespace {

void
runSec33(ScenarioContext &ctx)
{
    using perfect::Transformation;
    perfect::PerfectModel model;

    const Transformation all[] = {
        Transformation::array_privatization,
        Transformation::parallel_reductions,
        Transformation::induction_substitution,
        Transformation::runtime_dep_tests,
        Transformation::balanced_stripmining,
        Transformation::save_return_parallelization,
    };
    const char *abbrev[] = {"priv", "redux", "induc",
                            "rtdep", "strip", "sv/rt"};

    std::printf("Section 3.3: automatable transformations per Perfect "
                "code\n\n");
    {
        std::vector<std::string> headers{"code", "KAP spd", "auto spd"};
        for (const char *a : abbrev)
            headers.push_back(a);
        core::TableWriter table(std::move(headers));
        for (const auto &code : perfect::perfectSuite()) {
            std::vector<std::string> row{
                code.name,
                core::fmt(model.evaluate(code, perfect::Level::kap)
                              .speedup),
                core::fmt(
                    model.evaluate(code, perfect::Level::automatable)
                        .speedup)};
            for (Transformation t : all) {
                double w = 0.0;
                for (const auto &use :
                     perfect::transformationsFor(code.name)) {
                    if (use.transformation == t)
                        w = use.weight;
                }
                row.push_back(w > 0.0 ? core::fmt(w, 1) : "-");
            }
            table.row(row);
        }
        table.print();
    }
    std::printf("(cells: share of the code's KAP-to-automatable gap "
                "carried by the transformation)\n\n");

    std::printf("leave-one-out: suite harmonic-mean speedup with one "
                "transformation disabled\n");
    double base = 0.0;
    {
        std::vector<double> speedups;
        for (const auto &code : perfect::perfectSuite()) {
            speedups.push_back(
                model.evaluate(code, perfect::Level::automatable)
                    .speedup);
        }
        base = harmonicMean(speedups);
    }
    core::TableWriter table({"disabled transformation", "suite HM spd",
                             "loss", "needs advanced analysis"});
    table.row({"(none)", core::fmt(base, 2), "-", "-"});
    double worst_loss = 0.0, second_loss = 0.0;
    std::string worst_name;
    for (unsigned i = 0; i < perfect::num_transformations; ++i) {
        Transformation t = all[i];
        double without = perfect::suiteSpeedupWithout(model, t);
        double loss = 100.0 * (1.0 - without / base);
        if (loss > worst_loss) {
            second_loss = worst_loss;
            worst_loss = loss;
            worst_name = perfect::transformationName(t);
        } else if (loss > second_loss) {
            second_loss = loss;
        }
        table.row({perfect::transformationName(t), core::fmt(without, 2),
                   core::fmt(loss, 0) + "%",
                   perfect::requiresAdvancedAnalysis(t) ? "yes" : "no"});
    }
    table.print();
    std::printf("\n(array privatization is the load-bearing "
                "transformation, as Section 3.2's\n"
                "loop-local placement discussion predicts — and it is "
                "one of the analyses that\n"
                "needs the advanced symbolic/interprocedural machinery "
                "the paper flags.)\n");

    const double nan = std::numeric_limits<double>::quiet_NaN();
    ctx.cell("suite_hm_speedup", base,
             {nan, 0.0, 1e-6,
              "suite harmonic-mean automatable speedup"});
    ctx.cell("worst_loss_pct", worst_loss,
             {25.0, 0.2, 1e-6,
              "leave-one-out: privatization costs ~25% of the suite "
              "harmonic mean"});
    ctx.cell("second_loss_pct", second_loss,
             {9.0, 0.35, 1e-6,
              "next-largest leave-one-out loss (~9%)"});
    ctx.cell("worst_is_privatization",
             worst_name == "array privatization" ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "stated: privatization is the load-bearing "
              "transformation"});
}

} // namespace

namespace detail {

void
registerSec33Restructuring()
{
    registerScenario({"sec33_restructuring",
                      "Section 3.3 - transformation sensitivity", true,
                      runSec33});
}

} // namespace detail

} // namespace cedar::valid
