/**
 * @file
 * Tests for the parallel sweep executor: parallelMap's merge order and
 * error semantics, and the headline property — the validation report
 * is byte-identical for `--jobs {1,2,8}` across repeated runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.hh"
#include "sim/error.hh"
#include "valid/driver.hh"
#include "valid/scenario.hh"

namespace cedar::exec {
namespace {

TEST(ParallelMap, ResultsMergeInSubmissionOrder)
{
    const std::size_t n = 64;
    std::vector<std::function<std::uint64_t()>> tasks;
    for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back([i]() -> std::uint64_t {
            // Stagger completion so late submissions often finish
            // first; the merge must not care.
            std::this_thread::sleep_for(
                std::chrono::microseconds((n - i) * 50));
            return i * i + 7;
        });
    }
    auto out = parallelMap<std::uint64_t>(8, std::move(tasks));
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i + 7);
}

TEST(ParallelMap, FirstHardErrorCancelsAndRethrows)
{
    const std::size_t n = 200;
    std::mutex mu;
    std::vector<std::size_t> started;
    std::vector<std::function<int()>> tasks;
    for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back([i, &mu, &started] {
            {
                std::lock_guard<std::mutex> lock(mu);
                started.push_back(i);
            }
            if (i == 10) {
                throw SimError(SimError::Kind::deadlock, "test", Tick(i),
                               "injected hard error");
            }
            // Give the cancellation a chance to overtake the counter.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return 0;
        });
    }
    try {
        parallelMap<int>(4, std::move(tasks));
        FAIL() << "the injected error was swallowed";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::deadlock);
        EXPECT_EQ(e.tick(), Tick(10));
    }
    // Indices are claimed in order, so every task up to the failing
    // one ran; tasks not yet claimed when it threw were skipped, and
    // none ran twice.
    std::sort(started.begin(), started.end());
    EXPECT_EQ(std::adjacent_find(started.begin(), started.end()),
              started.end());
    ASSERT_GE(started.size(), 11u);
    EXPECT_EQ(started[10], 10u);
    EXPECT_LT(started.size(), n);
}

TEST(ParallelMap, LowestSubmissionIndexErrorWins)
{
    // Every task fails. Whichever thread finishes first, task 0 is
    // always claimed, so its error is the one rethrown — the same
    // error a serial run raises.
    std::vector<std::function<int()>> tasks;
    for (std::size_t i = 0; i < 8; ++i) {
        tasks.push_back([i]() -> int {
            throw SimError(SimError::Kind::assertion, "test", Tick(i),
                           "run " + std::to_string(i));
        });
    }
    for (unsigned jobs : {1u, 2u, 8u}) {
        try {
            parallelMap<int>(jobs, tasks);
            FAIL() << "no error at jobs=" << jobs;
        } catch (const SimError &e) {
            EXPECT_EQ(e.tick(), Tick(0)) << "jobs=" << jobs;
        }
    }
}

TEST(ParallelMap, SerialPathPropagatesImmediately)
{
    std::vector<std::function<int()>> tasks;
    std::vector<int> ran;
    for (int i = 0; i < 5; ++i) {
        tasks.push_back([i, &ran] {
            if (i == 2)
                throw SimError(SimError::Kind::config, "test", 0,
                               "bad point");
            ran.push_back(i);
            return i;
        });
    }
    EXPECT_THROW(parallelMap<int>(1, std::move(tasks)), SimError);
    // Inline serial execution stops at the throwing task, like a
    // plain loop would.
    EXPECT_EQ(ran, (std::vector<int>{0, 1}));
}

} // namespace
} // namespace cedar::exec

namespace cedar::valid {
namespace {

/** Cheap fast scenarios (all but the multi-second table2_memory). */
std::vector<std::string>
cheapScenarios()
{
    return {"fig12_topology", "table3_perfect",  "table4_handopt",
            "table5_stability", "table6_bands",  "fig3_scatter",
            "vm_study",       "sec33_restructuring", "ablation_runtime"};
}

ValidationReport
runCheap(unsigned jobs)
{
    ValidationOptions opts;
    opts.jobs = jobs;
    opts.filters = cheapScenarios();
    return runValidation(opts);
}

TEST(Determinism, ReportBytesIdenticalAcrossJobCounts)
{
    // The headline property: cedar_validate --json output is
    // byte-identical for --jobs {1,2,8}, three repeats each.
    ValidationReport base = runCheap(1);
    ASSERT_EQ(base.ran, cheapScenarios().size());
    EXPECT_EQ(base.failed, 0u) << base.logText();
    const std::string base_json = base.jsonReport().dump(2);
    const std::string base_log = base.logText();
    for (unsigned jobs : {1u, 2u, 8u}) {
        for (int rep = 0; rep < 3; ++rep) {
            ValidationReport r = runCheap(jobs);
            EXPECT_EQ(r.jsonReport().dump(2), base_json)
                << "jobs=" << jobs << " rep=" << rep;
            EXPECT_EQ(r.logText(), base_log)
                << "jobs=" << jobs << " rep=" << rep;
            EXPECT_EQ(r.exitCode(), 0);
        }
    }
}

TEST(Determinism, PointSweepMetricsIdenticalAcrossJobCounts)
{
    // The same scenario's *internal* sweep (--point-jobs) must
    // produce bitwise-identical metrics for any worker count. The
    // traffic matrix is a fast sweep: one point per scale, fabric and
    // traffic pattern.
    const Scenario *s = findScenario("traffic_matrix");
    ASSERT_NE(s, nullptr);
    auto run = [&](unsigned jobs) {
        ScenarioOptions opts;
        opts.jobs = jobs;
        StdoutSilencer quiet;
        return runScenario(*s, opts);
    };
    Metrics serial = run(1);
    ASSERT_FALSE(serial.values.empty());
    for (unsigned jobs : {2u, 8u}) {
        Metrics m = run(jobs);
        ASSERT_EQ(m.values.size(), serial.values.size());
        for (std::size_t i = 0; i < m.values.size(); ++i) {
            EXPECT_EQ(m.values[i].key, serial.values[i].key);
            // Bitwise equality, not tolerance: the parallel sweep is
            // the same computation, merely reordered in host time.
            EXPECT_EQ(m.values[i].value, serial.values[i].value)
                << m.values[i].key << " at jobs=" << jobs;
        }
    }
}

TEST(Driver, ZeroMatchingScenariosIsAnError)
{
    ValidationOptions opts;
    opts.filters = {"no_such_scenario_xyz"};
    ValidationReport r = runValidation(opts);
    EXPECT_EQ(r.ran, 0u);
    EXPECT_EQ(r.exitCode(), 2);
    EXPECT_NE(r.logText().find("no scenario matched the filter"),
              std::string::npos);
    const Json j = r.jsonReport();
    ASSERT_NE(j.get("ok"), nullptr);
    EXPECT_FALSE(j.get("ok")->asBool());
}

TEST(Driver, ThrowingScenarioReportsDeterministically)
{
    // A config hook that rejects every machine makes both scenarios
    // throw (both build a CedarMachine via ctx.config()); the FAIL
    // lines and exit code must come out in submission order for any
    // job count.
    auto run = [](unsigned jobs) {
        ValidationOptions opts;
        opts.jobs = jobs;
        opts.filters = {"fig12_topology", "ablation_runtime"};
        opts.config_hook = [](machine::CedarConfig &) {
            throw SimError(SimError::Kind::config, "test", 0,
                           "rejected by hook");
        };
        return runValidation(opts);
    };
    ValidationReport serial = run(1);
    EXPECT_EQ(serial.ran, 2u);
    EXPECT_EQ(serial.failed, 2u);
    EXPECT_EQ(serial.exitCode(), 1);
    EXPECT_NE(serial.logText().find("scenario threw"),
              std::string::npos);
    ValidationReport parallel = run(2);
    EXPECT_EQ(parallel.logText(), serial.logText());
    EXPECT_EQ(parallel.jsonReport().dump(2),
              serial.jsonReport().dump(2));
}

} // namespace
} // namespace cedar::valid
