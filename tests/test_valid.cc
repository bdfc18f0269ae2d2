/**
 * @file
 * Tests of the validation subsystem itself: the JSON reader/writer,
 * the two-gate tolerance math, the scenario registry, and the
 * golden-file round trip. The harness that guards every reproduced
 * paper number needs its own guards.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/cedar.hh"
#include "valid/driver.hh"
#include "valid/golden.hh"
#include "valid/json.hh"
#include "valid/scenario.hh"

using namespace cedar;
using namespace cedar::valid;

namespace {

struct QuietEnv : public ::testing::Environment
{
    void SetUp() override { setLogQuiet(true); }
};
const auto *quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();

/** A golden file with one cell, for tolerance-math tests. */
GoldenFile
oneCellGolden(double value, double paper, double paper_tol,
              double drift)
{
    GoldenFile g;
    g.scenario = "synthetic";
    g.source = "test";
    g.cells.push_back({"cell", value, paper, paper_tol, drift, "t"});
    return g;
}

/** Metrics with one checked cell named "cell". */
Metrics
oneCellMetrics(double measured)
{
    ScenarioOptions opts;
    ScenarioContext ctx(opts);
    ctx.cell("cell", measured);
    return ctx.metrics();
}

} // namespace

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

TEST(JsonTest, ParsesEveryValueType)
{
    auto j = Json::parse(
        R"({"a": 1.5, "b": "x\n\"y", "c": true, "d": null,)"
        R"( "e": [1, 2, 3], "f": {"g": -2e3}})");
    EXPECT_DOUBLE_EQ(j.get("a")->asNumber(), 1.5);
    EXPECT_EQ(j.get("b")->asString(), "x\n\"y");
    EXPECT_TRUE(j.get("c")->asBool());
    EXPECT_TRUE(j.get("d")->isNull());
    ASSERT_EQ(j.get("e")->size(), 3u);
    EXPECT_DOUBLE_EQ(j.get("e")->at(1).asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(j.get("f")->get("g")->asNumber(), -2000.0);
    EXPECT_EQ(j.get("missing"), nullptr);
}

TEST(JsonTest, RoundTripPreservesMemberOrder)
{
    // Golden files must diff cleanly, so emit order == insert order.
    Json obj = Json::object();
    obj.set("zeta", Json::of(1.0));
    obj.set("alpha", Json::of(2.0));
    obj.set("mid", Json::of("s"));
    Json re = Json::parse(obj.dump(2));
    ASSERT_EQ(re.members().size(), 3u);
    EXPECT_EQ(re.members()[0].first, "zeta");
    EXPECT_EQ(re.members()[1].first, "alpha");
    EXPECT_EQ(re.members()[2].first, "mid");
}

TEST(JsonTest, MalformedInputThrows)
{
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(Json::parse("tru"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
}

TEST(JsonTest, TypeMismatchThrows)
{
    auto j = Json::parse("{\"a\": 1}");
    EXPECT_THROW(j.get("a")->asString(), std::runtime_error);
    EXPECT_THROW(j.asNumber(), std::runtime_error);
}

// ---------------------------------------------------------------------
// Tolerance math: the two gates
// ---------------------------------------------------------------------

TEST(GoldenCheck, DriftGatePassesInsideTheBand)
{
    auto g = oneCellGolden(100.0, nan_v, 0.0, 0.01);
    auto r = checkAgainstGolden(g, oneCellMetrics(100.9));
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.cells[0].drift_ok);
}

TEST(GoldenCheck, DriftGateFailsOutsideTheBand)
{
    auto g = oneCellGolden(100.0, nan_v, 0.0, 0.01);
    auto r = checkAgainstGolden(g, oneCellMetrics(101.1));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.failures, 1u);
    EXPECT_FALSE(r.cells[0].drift_ok);
    EXPECT_FALSE(describeFailures(r).empty());
}

TEST(GoldenCheck, PaperGateIsIndependentOfDrift)
{
    // Frozen value inside its own drift band but outside the paper
    // band: the paper gate must fail on its own.
    auto g = oneCellGolden(100.0, 50.0, 0.10, 0.01);
    auto r = checkAgainstGolden(g, oneCellMetrics(100.0));
    EXPECT_TRUE(r.cells[0].drift_ok);
    EXPECT_FALSE(r.cells[0].paper_ok);
    EXPECT_FALSE(r.ok());
}

TEST(GoldenCheck, NanPaperMeansNoPaperGate)
{
    auto g = oneCellGolden(100.0, nan_v, 0.0, 0.5);
    auto r = checkAgainstGolden(g, oneCellMetrics(130.0));
    EXPECT_TRUE(r.cells[0].paper_ok);
    EXPECT_TRUE(r.ok());
}

TEST(GoldenCheck, ExactCellsToleratePureRoundoffOnly)
{
    // drift = 0 with absolute slack: equality passes, any real
    // deviation fails.
    auto g = oneCellGolden(3.0, 3.0, 0.0, 0.0);
    EXPECT_TRUE(checkAgainstGolden(g, oneCellMetrics(3.0)).ok());
    EXPECT_FALSE(
        checkAgainstGolden(g, oneCellMetrics(3.0001)).ok());
}

TEST(GoldenCheck, ZeroFrozenValueComparesAbsolutely)
{
    auto g = oneCellGolden(0.0, nan_v, 0.0, 1e-6);
    EXPECT_TRUE(checkAgainstGolden(g, oneCellMetrics(0.0)).ok());
    EXPECT_FALSE(checkAgainstGolden(g, oneCellMetrics(0.5)).ok());
}

TEST(GoldenCheck, MissingCellIsAFailure)
{
    auto g = oneCellGolden(1.0, nan_v, 0.0, 1e-6);
    ScenarioOptions opts;
    ScenarioContext ctx(opts);
    ctx.cell("different_key", 1.0);
    auto r = checkAgainstGolden(g, ctx.metrics());
    ASSERT_EQ(r.cells.size(), 1u);
    EXPECT_FALSE(r.cells[0].present);
    EXPECT_GE(r.failures, 1u);
}

TEST(GoldenCheck, UnknownCellsAreFlagged)
{
    // A new cell added to a scenario without regenerating its golden
    // must not pass silently.
    auto g = oneCellGolden(1.0, nan_v, 0.0, 1e-6);
    ScenarioOptions opts;
    ScenarioContext ctx(opts);
    ctx.cell("cell", 1.0);
    ctx.cell("brand_new_cell", 9.0);
    ctx.metric("unchecked_metric", 3.0); // plain metrics are exempt
    auto r = checkAgainstGolden(g, ctx.metrics());
    ASSERT_EQ(r.unknown_cells.size(), 1u);
    EXPECT_EQ(r.unknown_cells[0], "brand_new_cell");
    EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------
// Golden file round trip
// ---------------------------------------------------------------------

TEST(GoldenFileTest, RunToFileToDiskAndBack)
{
    Scenario s;
    s.name = "synthetic";
    s.title = "Synthetic round-trip scenario";
    ScenarioOptions opts;
    ScenarioContext ctx(opts);
    ctx.cell("exact", 4.0, {4.0, 0.0, 0.0, "a count"});
    ctx.cell("banded", 29.5, {30.0, 0.15, 1e-6, "Table T"});
    ctx.cell("derived", 1.25); // defaults: no paper, tight drift
    ctx.metric("informational", 7.0);

    GoldenFile g = goldenFromRun(s, ctx.metrics());
    EXPECT_EQ(g.scenario, "synthetic");
    ASSERT_EQ(g.cells.size(), 3u); // metrics are not frozen
    EXPECT_FALSE(g.find("derived")->hasPaper());
    EXPECT_DOUBLE_EQ(g.find("banded")->paper, 30.0);

    std::string path = ::testing::TempDir() + "golden_rt.json";
    saveGolden(path, g);
    GoldenFile re = loadGolden(path);
    std::remove(path.c_str());

    ASSERT_EQ(re.cells.size(), g.cells.size());
    for (std::size_t i = 0; i < g.cells.size(); ++i) {
        EXPECT_EQ(re.cells[i].key, g.cells[i].key);
        EXPECT_DOUBLE_EQ(re.cells[i].value, g.cells[i].value);
        EXPECT_EQ(re.cells[i].hasPaper(), g.cells[i].hasPaper());
        EXPECT_DOUBLE_EQ(re.cells[i].drift, g.cells[i].drift);
        EXPECT_EQ(re.cells[i].note, g.cells[i].note);
    }
    // The reloaded file must check clean against the generating run.
    EXPECT_TRUE(checkAgainstGolden(re, ctx.metrics()).ok());
}

TEST(GoldenFileTest, LoadRejectsMissingAndMalformedFiles)
{
    EXPECT_THROW(loadGolden("/nonexistent/golden.json"),
                 std::runtime_error);
    std::string path = ::testing::TempDir() + "golden_bad.json";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"not\": \"a golden schema\"}", f);
        std::fclose(f);
    }
    EXPECT_THROW(loadGolden(path), std::runtime_error);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------

TEST(ScenarioRegistry, AllScenariosRegistered)
{
    const auto &all = allScenarios();
    // The 14 paper tables/figures, the sampled-simulation methodology
    // cell, and the three beyond-paper scale scenarios (EXPERIMENTS.md
    // order; the scaled battery last).
    ASSERT_EQ(all.size(), 18u);
    EXPECT_EQ(all.front().name, "fig12_topology");
    EXPECT_EQ(all.back().name, "scaled_parallelism");
    for (const auto &s : all) {
        EXPECT_FALSE(s.title.empty());
        EXPECT_TRUE(s.run != nullptr);
        // Names are unique.
        unsigned count = 0;
        for (const auto &t : all)
            count += (t.name == s.name);
        EXPECT_EQ(count, 1u) << s.name;
    }
}

TEST(ScenarioRegistry, FindByNameAndSlowSplit)
{
    const Scenario *s = findScenario("table2_memory");
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->fast);
    EXPECT_EQ(findScenario("no_such_scenario"), nullptr);
    // The four full sweeps are the slow (validation-label) set.
    for (const char *slow : {"table1_rank64", "ppt4_scalability",
                             "ppt5_scaled", "ablation_network"}) {
        const Scenario *sc = findScenario(slow);
        ASSERT_NE(sc, nullptr) << slow;
        EXPECT_FALSE(sc->fast) << slow;
    }
}

TEST(ScenarioRegistry, EveryScenarioHasACheckedInGolden)
{
    for (const auto &s : allScenarios()) {
        GoldenFile g;
        ASSERT_NO_THROW(
            g = loadGolden(goldenPath(goldenDir(), s.name)))
            << s.name;
        EXPECT_EQ(g.scenario, s.name);
        EXPECT_FALSE(g.cells.empty()) << s.name;
    }
}

// ---------------------------------------------------------------------
// Scenario context and perturbation plumbing
// ---------------------------------------------------------------------

TEST(ScenarioContext, MetricsFindAndAt)
{
    ScenarioOptions opts;
    ScenarioContext ctx(opts);
    ctx.metric("plain", 1.0);
    ctx.cell("checked", 2.0, {2.0, 0.1, 1e-6, "n"});
    const auto &m = ctx.metrics();
    EXPECT_DOUBLE_EQ(m.at("plain"), 1.0);
    EXPECT_FALSE(m.find("plain")->checked);
    EXPECT_TRUE(m.find("checked")->checked);
    EXPECT_EQ(m.find("checked")->spec.note, "n");
    EXPECT_EQ(m.find("absent"), nullptr);
    EXPECT_THROW(m.at("absent"), std::runtime_error);
}

TEST(ScenarioContext, ConfigHookReachesStandardAndCustomConfigs)
{
    // The --perturb plumbing: the hook must apply both to
    // ctx.config() (standard machines) and ctx.tune() (scenarios
    // that build their own configuration).
    ScenarioOptions opts;
    opts.config_hook = [](machine::CedarConfig &cfg) {
        cfg.gm.module_conflict_extra += 3;
    };
    ScenarioContext ctx(opts);
    auto base = machine::CedarConfig::standard();
    auto tuned = ctx.config();
    EXPECT_EQ(tuned.gm.module_conflict_extra,
              base.gm.module_conflict_extra + 3);

    machine::CedarConfig custom = machine::CedarConfig::standard();
    custom.num_clusters = 2;
    ctx.tune(custom);
    EXPECT_EQ(custom.num_clusters, 2u);
    EXPECT_EQ(custom.gm.module_conflict_extra,
              base.gm.module_conflict_extra + 3);
}

TEST(ScenarioContext, InjectedRegressionMovesACheckedCell)
{
    // End-to-end, in miniature: the same scenario body measured under
    // a perturbed machine must land outside the unperturbed golden's
    // drift band — the property `cedar_validate --perturb` relies on.
    auto measure = [](const ScenarioOptions &opts) {
        ScenarioContext ctx(opts);
        machine::CedarMachine machine(ctx.config());
        kernels::VloadParams params;
        params.ces = 8;
        params.repetitions = 50;
        auto res = kernels::runVload(machine, params);
        ctx.cell("latency", res.mean_latency,
                 {nan_v, 0.0, 1e-6, "synthetic"});
        return ctx.metrics();
    };

    Scenario s;
    s.name = "synthetic_perturb";
    ScenarioOptions clean;
    GoldenFile golden = goldenFromRun(s, measure(clean));

    ScenarioOptions perturbed;
    perturbed.config_hook = [](machine::CedarConfig &cfg) {
        cfg.gm.module_access_cycles += 1;
    };
    auto r = checkAgainstGolden(golden, measure(perturbed));
    EXPECT_FALSE(r.ok());
    // And the clean rerun still passes (determinism).
    EXPECT_TRUE(checkAgainstGolden(golden, measure(clean)).ok());
}
