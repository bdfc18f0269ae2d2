/**
 * @file
 * Tests for the interval-telemetry subsystem (src/sim/telemetry.hh)
 * and the crash-safe Chrome-trace stream: record shape, delta/rate
 * accounting against the registry, bit-identity across reruns and
 * worker counts, neutrality toward golden cells, and array
 * finalization on error unwinds.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/cedar.hh"
#include "machine/perfmon.hh"
#include "sim/telemetry.hh"
#include "valid/driver.hh"
#include "valid/json.hh"

using namespace cedar;

namespace {

/** Parse every JSONL line of a ring sink. */
std::vector<valid::Json>
parseLines(const RingTelemetrySink &sink)
{
    std::vector<valid::Json> out;
    for (const auto &line : sink.lines())
        out.push_back(valid::Json::parse(line));
    return out;
}

double
numberAt(const valid::Json &obj, const char *key)
{
    const valid::Json *v = obj.get(key);
    if (!v || !v->isNumber())
        ADD_FAILURE() << "missing number key " << key;
    return v && v->isNumber() ? v->asNumber() : 0.0;
}

/**
 * A deterministic workload: one actor firing every tick, bumping a
 * registered counter, until the budget drains.
 */
struct TickActor
{
    TickActor(Simulation &sim, Counter &ctr, std::uint64_t budget)
        : _sim(sim), _ctr(ctr), _budget(budget)
    {
    }

    void start() { _sim.schedule(_event, _sim.curTick() + 1); }

    void
    fire()
    {
        _ctr.inc();
        if (--_budget > 0)
            _sim.schedule(_event, _sim.curTick() + 1);
    }

    Simulation &_sim;
    Counter &_ctr;
    std::uint64_t _budget;
    MemberEvent<TickActor, &TickActor::fire> _event{
        *this, EventPriority::normal, "test.tick"};
};

} // namespace

TEST(Telemetry, IntervalRecordsAndFinal)
{
    Simulation sim;
    StatRegistry reg;
    Counter work;
    reg.addCounter("test.work", work);

    RingTelemetrySink sink;
    TelemetryParams params;
    params.interval = 10;
    TickActor actor(sim, work, 35);
    actor.start();
    {
        TelemetrySampler sampler("test", sim, reg, params, sink);
        sampler.start();
        sim.run();
        EXPECT_TRUE(sampler.finished());
    }

    auto records = parseLines(sink);
    // 35 one-tick events: interval records at ticks 10/20/30 plus the
    // final record when the queue drained.
    ASSERT_EQ(records.size(), 4u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(records[i].get("kind")->asString(), "interval");
        EXPECT_EQ(numberAt(records[i], "seq"), double(i));
        EXPECT_EQ(numberAt(records[i], "tick"), double(10 * (i + 1)));
        EXPECT_EQ(numberAt(records[i], "window"), 10.0);
    }
    const valid::Json &final_rec = records.back();
    EXPECT_EQ(final_rec.get("kind")->asString(), "final");
    ASSERT_NE(final_rec.get("final"), nullptr);
    EXPECT_TRUE(final_rec.get("final")->asBool());
    // The workload drains at tick 35; the sampler notices at its next
    // boundary (40) — a run extends by at most one interval, never more.
    EXPECT_EQ(numberAt(final_rec, "tick"), 40.0);
    // Cumulative stats in the final record match the registry.
    EXPECT_EQ(numberAt(*final_rec.get("stats"), "test.work"), 35.0);
}

TEST(Telemetry, DeltasSumToTotalsAndRatesAreWindowLocal)
{
    Simulation sim;
    StatRegistry reg;
    Counter work;
    reg.addCounter("test.work", work);

    RingTelemetrySink sink;
    TelemetryParams params;
    params.interval = 100;
    TickActor actor(sim, work, 250);
    actor.start();
    TelemetrySampler sampler("test", sim, reg, params, sink);
    sampler.start();
    sim.run();
    sampler.finish();

    auto records = parseLines(sink);
    ASSERT_GE(records.size(), 3u);
    double delta_sum = 0.0;
    for (const auto &rec : records) {
        const valid::Json *delta = rec.get("delta");
        if (delta && delta->get("test.work"))
            delta_sum += delta->get("test.work")->asNumber();
        // Window rate is the window's delta over the window's
        // simulated seconds — never a cumulative average.
        const valid::Json *rate = rec.get("rate");
        if (delta && rate && delta->get("test.work") &&
            rate->get("test.work")) {
            double window_s = ticksToSeconds(Tick(numberAt(rec, "window")));
            EXPECT_NEAR(rate->get("test.work")->asNumber(),
                        delta->get("test.work")->asNumber() / window_s,
                        1e-6 * rate->get("test.work")->asNumber());
        }
    }
    // Per-window deltas add up to the run total: nothing counted
    // twice, nothing dropped between windows.
    EXPECT_EQ(delta_sum, double(work.value()));
    EXPECT_EQ(work.value(), 250u);
}

TEST(Telemetry, ResetWindowsSumToTotals)
{
    // The registry side of window accounting: dump-and-reset windows
    // partition the run exactly.
    Simulation sim;
    StatRegistry reg;
    Counter work;
    reg.addCounter("test.work", work);

    TickActor actor(sim, work, 300);
    actor.start();
    std::uint64_t window_sum = 0;
    for (Tick horizon : {100u, 200u, 300u, 301u}) {
        sim.runUntil(horizon);
        auto snap = reg.snapshot();
        window_sum += std::uint64_t(snap.at("test.work"));
        reg.resetAll();
    }
    EXPECT_EQ(window_sum, 300u);
}

TEST(Telemetry, SamplerDoesNotKeepDrainedSimAlive)
{
    Simulation sim;
    StatRegistry reg;
    RingTelemetrySink sink;
    TelemetryParams params;
    params.interval = 5;
    TelemetrySampler sampler("test", sim, reg, params, sink);
    sampler.start();
    // No workload at all: run() must return immediately with only the
    // final record emitted, not spin on the sampler's own event.
    sim.run();
    EXPECT_TRUE(sampler.finished());
    ASSERT_EQ(sink.lines().size(), 1u);
    EXPECT_EQ(parseLines(sink)[0].get("kind")->asString(), "final");
}

TEST(Telemetry, SampleNowAndResumeAcrossPhases)
{
    Simulation sim;
    StatRegistry reg;
    Counter work;
    reg.addCounter("test.work", work);
    RingTelemetrySink sink;
    TelemetryParams params;
    params.interval = 10;

    TelemetrySampler sampler("test", sim, reg, params, sink);
    sampler.start();
    {
        TickActor actor(sim, work, 25);
        actor.start();
        sim.run();
    }
    EXPECT_TRUE(sampler.finished());
    sampler.sampleNow("phase-boundary");
    sampler.sampleNow("tab\there");
    sampler.resume();
    {
        TickActor actor(sim, work, 25);
        actor.start();
        sim.run();
    }
    sampler.finish();

    // A control character in a label is escaped, so strict parsers
    // accept the record and the label round-trips.
    bool escaped_tab = false;
    for (const auto &line : sink.lines()) {
        if (line.find(R"("kind":"tab\there")") != std::string::npos)
            escaped_tab = true;
    }
    EXPECT_TRUE(escaped_tab);

    auto records = parseLines(sink);
    bool saw_label = false, saw_tab_label = false;
    unsigned finals = 0;
    for (const auto &rec : records) {
        const std::string &kind = rec.get("kind")->asString();
        if (kind == "phase-boundary")
            saw_label = true;
        if (kind == "tab\there")
            saw_tab_label = true;
        if (kind == "final")
            ++finals;
    }
    EXPECT_TRUE(saw_label);
    EXPECT_TRUE(saw_tab_label);
    EXPECT_EQ(finals, 2u);
    EXPECT_EQ(work.value(), 50u);
}

TEST(Telemetry, MachineStreamBitIdenticalAcrossReruns)
{
    auto runOnce = [] {
        machine::CedarMachine machine;
        RingTelemetrySink sink;
        TelemetryParams params;
        params.interval = 20'000;
        machine.enableTelemetry(params, sink);
        kernels::Rank64Params kp;
        kp.n = 128;
        kp.clusters = 2;
        kernels::runRank64(machine, kp);
        return sink.text();
    };
    std::string first = runOnce();
    std::string second = runOnce();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(Telemetry, SamplingIsNeutralToMachineResults)
{
    auto runOnce = [](bool telemetry) {
        machine::CedarMachine machine;
        RingTelemetrySink sink;
        if (telemetry) {
            TelemetryParams params;
            params.interval = 7'000; // deliberately odd interval
            machine.enableTelemetry(params, sink);
        }
        kernels::Rank64Params kp;
        kp.n = 128;
        kp.clusters = 2;
        auto res = kernels::runRank64(machine, kp);
        auto snap = machine.stats().snapshot();
        // The sampler's own events show up in the engine's event and
        // tick counters (idle time runs to the last interval
        // boundary); everything component-level must be untouched.
        snap.erase("cedar.sim.events");
        snap.erase("cedar.sim.ticks");
        return std::make_pair(res.mflopsRate(), snap);
    };
    auto [rate_plain, snap_plain] = runOnce(false);
    auto [rate_telem, snap_telem] = runOnce(true);
    EXPECT_EQ(rate_plain, rate_telem);
    EXPECT_EQ(snap_plain, snap_telem);
}

TEST(Telemetry, ValidationFilesByteIdenticalAcrossJobs)
{
    namespace fs = std::filesystem;
    auto runAt = [](unsigned jobs, const std::string &dir) {
        valid::ValidationOptions opts;
        opts.filters = {"fig12_topology", "table2_memory"};
        opts.jobs = jobs;
        opts.telemetry_dir = dir;
        opts.telemetry_interval = 25'000;
        return valid::runValidation(opts);
    };
    fs::path base = fs::temp_directory_path() /
                    ("cedar_telem_test_" + std::to_string(::getpid()));
    fs::path dir1 = base / "j1", dir4 = base / "j4";
    auto r1 = runAt(1, dir1.string());
    auto r4 = runAt(4, dir4.string());
    EXPECT_EQ(r1.exitCode(), 0) << r1.logText();
    EXPECT_EQ(r4.exitCode(), 0) << r4.logText();

    for (const char *name : {"fig12_topology", "table2_memory"}) {
        auto slurp = [](const fs::path &p) {
            std::ifstream in(p, std::ios::binary);
            std::ostringstream ss;
            ss << in.rdbuf();
            return ss.str();
        };
        std::string a = slurp(dir1 / (std::string(name) + ".jsonl"));
        std::string b = slurp(dir4 / (std::string(name) + ".jsonl"));
        EXPECT_FALSE(a.empty()) << name;
        EXPECT_EQ(a, b) << name << " telemetry differs across --jobs";
    }
    fs::remove_all(base);
}

TEST(Telemetry, GoldenCellsUnchangedWithTelemetry)
{
    namespace fs = std::filesystem;
    auto runOnce = [](const std::string &dir) {
        valid::ValidationOptions opts;
        opts.filters = {"fig12_topology"};
        opts.telemetry_dir = dir;
        opts.telemetry_interval = dir.empty() ? Tick(0) : Tick(10'000);
        return valid::runValidation(opts);
    };
    fs::path dir = fs::temp_directory_path() /
                   ("cedar_telem_neutral_" + std::to_string(::getpid()));
    auto plain = runOnce("");
    auto telem = runOnce(dir.string());
    ASSERT_EQ(plain.outcomes.size(), 1u);
    ASSERT_EQ(telem.outcomes.size(), 1u);
    EXPECT_EQ(plain.exitCode(), 0) << plain.logText();
    EXPECT_EQ(telem.exitCode(), 0) << telem.logText();
    ASSERT_EQ(plain.outcomes[0].metrics.values.size(),
              telem.outcomes[0].metrics.values.size());
    for (std::size_t i = 0; i < plain.outcomes[0].metrics.values.size();
         ++i) {
        EXPECT_EQ(plain.outcomes[0].metrics.values[i].value,
                  telem.outcomes[0].metrics.values[i].value)
            << plain.outcomes[0].metrics.values[i].key;
    }
    fs::remove_all(dir);
}

TEST(HostProfiler, ProfilingIsDeterminismNeutralAndAttributes)
{
    auto runOnce = [](bool profile) {
        machine::CedarMachine machine;
        machine.sim().setProfiling(profile);
        kernels::Rank64Params kp;
        kp.n = 128;
        kp.clusters = 1;
        kernels::runRank64(machine, kp);
        auto snap = machine.stats().snapshot();
        std::vector<HostProfiler::KindStats> table;
        if (const HostProfiler *prof = machine.sim().profiler())
            table = prof->table();
        return std::make_pair(snap, table);
    };
    auto [snap_off, table_off] = runOnce(false);
    auto [snap_on, table_on] = runOnce(true);
    // The profiler observes the dispatch loop; it never schedules, so
    // every simulated quantity — tick and event counts included — is
    // identical with it armed.
    EXPECT_EQ(snap_off, snap_on);
    EXPECT_TRUE(table_off.empty());
    ASSERT_FALSE(table_on.empty());
    std::uint64_t dispatches = 0;
    for (const auto &k : table_on) {
        EXPECT_FALSE(k.kind.empty());
        dispatches += k.dispatches;
    }
    // Every executed event was attributed to some kind.
    EXPECT_EQ(dispatches, std::uint64_t(snap_on.at("cedar.sim.events")));
}

TEST(ChromeTraceStream, FileIsValidJsonAfterThrow)
{
    namespace fs = std::filesystem;
    fs::path path = fs::temp_directory_path() /
                    ("cedar_trace_throw_" + std::to_string(::getpid()) +
                     ".json");
    try {
        machine::ChromeTraceStream stream(path.string());
        ASSERT_TRUE(stream.ok());
        stream.post(100, std::uint32_t(Signal::cache_miss), 4);
        stream.post(250, std::uint32_t(Signal::net_enqueue), 2);
        // A run dying mid-trace: the stream goes out of scope on the
        // unwind and must still leave a well-formed file behind.
        throw std::runtime_error("injected failure");
    } catch (const std::runtime_error &) {
    }

    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    valid::Json doc = valid::Json::parse(ss.str()); // throws if cut off
    ASSERT_TRUE(doc.isArray());
    // Thread-name metadata plus the two posted events.
    unsigned instants = 0;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        const valid::Json *ph = doc.at(i).get("ph");
        if (ph && ph->asString() == "i")
            ++instants;
    }
    EXPECT_EQ(instants, 2u);
    fs::remove(path);
}

TEST(ChromeTraceStream, DrainIsIncremental)
{
    namespace fs = std::filesystem;
    fs::path path = fs::temp_directory_path() /
                    ("cedar_trace_drain_" + std::to_string(::getpid()) +
                     ".json");
    machine::EventTracer tracer("test.tracer");
    tracer.start();
    tracer.post(10, std::uint32_t(Signal::cache_miss), 1);
    tracer.post(20, std::uint32_t(Signal::cache_fill), 8);

    machine::ChromeTraceStream stream(path.string());
    std::size_t next = stream.drain(tracer);
    EXPECT_EQ(next, 2u);
    tracer.post(30, std::uint32_t(Signal::module_service), 0);
    next = stream.drain(tracer, next);
    EXPECT_EQ(next, 3u);
    EXPECT_EQ(stream.eventsWritten(), 3u);
    EXPECT_TRUE(stream.close());

    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    valid::Json doc = valid::Json::parse(ss.str());
    ASSERT_TRUE(doc.isArray());
    fs::remove(path);
}
