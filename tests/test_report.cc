/**
 * @file
 * Tests for the report-formatting helpers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/report.hh"

using namespace cedar::core;

TEST(Fmt, FixedDecimals)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(3.0, 0), "3");
    EXPECT_EQ(fmt(-1.5), "-1.5");
}

TEST(Fmt, VsPaperCells)
{
    EXPECT_EQ(vsPaper(13.3, 14.5), "13.3 (14.5)");
    EXPECT_EQ(vsPaper(68.0, 68.0, 0), "68 (68)");
}

TEST(Fmt, RelativeError)
{
    EXPECT_DOUBLE_EQ(relativeError(11.0, 10.0), 0.1);
    EXPECT_DOUBLE_EQ(relativeError(9.0, 10.0), 0.1);
    EXPECT_THROW(relativeError(1.0, 0.0), std::logic_error);
}

TEST(TableWriter, AlignsColumns)
{
    TableWriter table({"code", "value"}, 4);
    table.row({"ADM", "1.5"});
    table.row({"LONGNAME", "10.25"});
    std::string out = table.str();
    // Header present, separator present, rows present.
    EXPECT_NE(out.find("code"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_NE(out.find("LONGNAME"), std::string::npos);
    // Right-aligned numeric column: "1.5" is padded on the left.
    EXPECT_NE(out.find("  1.5"), std::string::npos);
}

TEST(TableWriter, RejectsRaggedRows)
{
    TableWriter table({"a", "b"});
    EXPECT_THROW(table.row({"only-one"}), std::logic_error);
}

TEST(TableWriter, EmptyTableStillRenders)
{
    TableWriter table({"a"});
    EXPECT_FALSE(table.str().empty());
}

TEST(BenchOutput, JsonLineUsesTheSharedNumberFormat)
{
    char arg0[] = "bench";
    char *argv[] = {arg0, nullptr};
    BenchOutput out("stress", 1, argv);
    out.metric("full", 1.23456789);
    out.metric("big", 3e9);
    out.metric("nan", std::nan(""));
    out.metric("k\"e\\y", 1.5);
    EXPECT_EQ(out.jsonLine(), R"({"bench":"stress","full":1.23456789,)"
                              R"("big":3000000000,"nan":0,"k\"e\\y":1.5})");
}

// ---------------------------------------------------------------------
// Machine snapshot / report
// ---------------------------------------------------------------------

#include "core/machine_report.hh"
#include "kernels/vload.hh"
#include "machine/cedar.hh"

TEST(MachineReport, SnapshotReflectsARun)
{
    cedar::setLogQuiet(true);
    cedar::machine::CedarMachine machine;
    cedar::kernels::VloadParams params;
    params.ces = 8;
    params.repetitions = 20;
    cedar::kernels::runVload(machine, params);

    auto snap = cedar::core::snapshot(machine);
    EXPECT_GT(snap.elapsed, 0u);
    EXPECT_EQ(snap.gm_reads, 8u * 20u * 32u);
    EXPECT_EQ(snap.pfu_requests, snap.gm_reads);
    EXPECT_GE(snap.pfu_latency_mean, 8.0);
    EXPECT_GT(snap.rev_delivered_words, 0u);
    EXPECT_LE(snap.gm_bandwidth_utilization, 1.0);
}

TEST(MachineReport, RenderMentionsEverySection)
{
    cedar::core::MachineSnapshot snap;
    snap.elapsed = 1000;
    snap.total_flops = 2000;
    std::string report = cedar::core::renderReport(snap);
    for (const char *section :
         {"machine report", "global memory", "networks", "clusters",
          "prefetch units", "MFLOPS"}) {
        EXPECT_NE(report.find(section), std::string::npos) << section;
    }
}

TEST(MachineReport, RenderIsIdenticalAcrossRuns)
{
    cedar::setLogQuiet(true);
    auto render = [] {
        cedar::machine::CedarMachine machine;
        // Host profiles are opt-in host time (CEDAR_HOST_PROFILE=1).
        machine.sim().setProfiling(false);
        cedar::kernels::VloadParams params;
        params.ces = 8;
        params.repetitions = 20;
        cedar::kernels::runVload(machine, params);
        return cedar::core::renderReport(cedar::core::snapshot(machine));
    };
    EXPECT_EQ(render(), render());
}

TEST(MachineReport, RenderPrintsThisMachinesBandwidthBudget)
{
    using cedar::machine::CedarConfig;
    // modules / module access cycles, at 8 bytes a word and 170 ns a
    // cycle.
    const std::pair<CedarConfig, const char *> cases[] = {
        {CedarConfig::standard(), "% of the 16 words/cycle (753 MB/s) budget"},
        {CedarConfig::scaled(64),
         "% of the 256 words/cycle (12047 MB/s) budget"},
    };
    for (const auto &[config, budget] : cases) {
        cedar::machine::CedarMachine machine(config);
        std::string report =
            cedar::core::renderReport(cedar::core::snapshot(machine));
        EXPECT_NE(report.find(budget), std::string::npos) << report;
    }
}

TEST(MachineReport, RenderPrintsThisMachinesLatencyFloors)
{
    using cedar::machine::CedarConfig;
    struct Case
    {
        const char *name;
        CedarConfig config;
        const char *gm_floor;
        const char *pfu_floor;
    };
    const Case cases[] = {
        {"standard", CedarConfig::standard(), "(uncontended minimum 6)",
         "(hardware minimum 8)"},
        {"scaled(64) omega", CedarConfig::scaled(64),
         "(uncontended minimum 8)", "(hardware minimum 10)"},
        {"scaled(64) crossbar", CedarConfig::scaled(64, "crossbar"),
         "(uncontended minimum 4)", "(hardware minimum 6)"},
    };
    for (const Case &c : cases) {
        cedar::machine::CedarMachine machine(c.config);
        std::string report =
            cedar::core::renderReport(cedar::core::snapshot(machine));
        EXPECT_NE(report.find(c.gm_floor), std::string::npos)
            << c.name << "\n" << report;
        EXPECT_NE(report.find(c.pfu_floor), std::string::npos)
            << c.name << "\n" << report;
    }
}
