/**
 * @file
 * Observability tests: the EventTracer and Histogrammer hardware
 * models (capacity, drop, cascade, saturation), the StatRegistry
 * (registration, glob aggregation, JSON dump), the monitor's probe
 * points in real runs, and the Chrome trace-event exporter.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <unistd.h>

#include "core/machine_report.hh"
#include "machine/cedar.hh"
#include "machine/perfmon.hh"
#include "runtime/loops.hh"
#include "sim/statreg.hh"

using namespace cedar;
using namespace cedar::machine;

// --- EventTracer hardware semantics ---------------------------------

TEST(EventTracer, HoldsOneMillionEventsThenDrops)
{
    EventTracer tracer("t");
    EXPECT_EQ(tracer.capacity(), 1u << 20);
    tracer.start();
    for (std::size_t i = 0; i < tracer.capacity() + 100; ++i)
        tracer.post(Tick(i), 0, 0);
    EXPECT_EQ(tracer.events().size(), tracer.capacity());
    EXPECT_EQ(tracer.droppedCount(), 100u);
}

TEST(EventTracer, CascadeDoublesCapacity)
{
    EventTracer tracer("t", 2);
    EXPECT_EQ(tracer.capacity(), 2u << 20);
}

TEST(EventTracer, RecordsNothingUntilStarted)
{
    EventTracer tracer("t");
    tracer.post(1, 0, 0);
    EXPECT_TRUE(tracer.events().empty());
    tracer.start();
    tracer.post(2, 3, 42);
    tracer.stopTracer();
    tracer.post(3, 0, 0);
    ASSERT_EQ(tracer.events().size(), 1u);
    EXPECT_EQ(tracer.events()[0].when, 2u);
    EXPECT_EQ(tracer.events()[0].signal, 3u);
    EXPECT_EQ(tracer.events()[0].value, 42);
}

TEST(EventTracer, ClearResetsEventsAndDropCount)
{
    EventTracer tracer("t");
    tracer.start();
    tracer.post(1, 0, 0);
    tracer.clear();
    EXPECT_TRUE(tracer.events().empty());
    EXPECT_EQ(tracer.droppedCount(), 0u);
}

// --- Histogrammer hardware semantics --------------------------------

TEST(Histogrammer, SaturatesAt32Bits)
{
    Histogrammer h("h");
    h.preset(7, ~std::uint32_t(0) - 1);
    h.sample(7);
    EXPECT_EQ(h.counter(7), ~std::uint32_t(0));
    h.sample(7); // saturated: must not wrap
    EXPECT_EQ(h.counter(7), ~std::uint32_t(0));
}

TEST(Histogrammer, CountsOutOfRangeSamples)
{
    Histogrammer h("h");
    EXPECT_EQ(h.numCounters(), 1u << 16);
    h.sample(h.numCounters());
    h.sample(h.numCounters() + 5);
    EXPECT_EQ(h.outOfRangeCount(), 2u);
}

TEST(Histogrammer, MeanIsBinWeighted)
{
    Histogrammer h("h");
    h.sample(2);
    h.sample(2);
    h.sample(8);
    EXPECT_DOUBLE_EQ(h.mean(), (2.0 + 2.0 + 8.0) / 3.0);
}

TEST(Histogrammer, ClearZeroesCounters)
{
    Histogrammer h("h");
    h.sample(5);
    h.sample(5);
    EXPECT_EQ(h.counter(5), 2u);
    h.clear();
    EXPECT_EQ(h.counter(5), 0u);
}

// --- glob matching --------------------------------------------------

TEST(GlobMatch, LiteralAndStar)
{
    EXPECT_TRUE(globMatch("cedar.gm.reads", "cedar.gm.reads"));
    EXPECT_FALSE(globMatch("cedar.gm.reads", "cedar.gm.writes"));
    EXPECT_TRUE(globMatch("cedar.gm.mod*.wait", "cedar.gm.mod31.wait"));
    EXPECT_TRUE(globMatch("cedar.cluster*.ce*.ops",
                          "cedar.cluster3.ce7.ops"));
    EXPECT_FALSE(globMatch("cedar.gm.mod*.wait", "cedar.gm.mod31.busy"));
    EXPECT_TRUE(globMatch("*", "anything.at.all"));
}

// --- StatRegistry ---------------------------------------------------

TEST(StatRegistry, RegistersAndAggregates)
{
    StatRegistry reg;
    Counter a, b;
    SampleStat s;
    a.inc(3);
    b.inc(5);
    s.sample(10.0);
    s.sample(20.0);
    reg.addCounter("top.x.count", a);
    reg.addCounter("top.y.count", b);
    reg.addSample("top.x.lat", s);
    reg.addScalar("top.derived", [] { return 2.5; });

    EXPECT_EQ(reg.size(), 4u);
    EXPECT_EQ(reg.counterValue("top.x.count"), 3u);
    EXPECT_EQ(reg.sumCounters("top.*.count"), 8u);
    EXPECT_DOUBLE_EQ(reg.scalarValue("top.derived"), 2.5);
    EXPECT_DOUBLE_EQ(reg.weightedMean("top.*.lat"), 15.0);

    auto snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.at("top.x.count"), 3.0);
    EXPECT_DOUBLE_EQ(snap.at("top.x.lat.mean"), 15.0);
}

TEST(StatRegistry, DumpJsonNestsDottedNames)
{
    StatRegistry reg;
    Counter c;
    c.inc(7);
    reg.addCounter("a.b.c", c);
    reg.addScalar("a.b.d", [] { return 1.5; });
    std::string json = reg.dumpJson();
    EXPECT_NE(json.find("\"a\""), std::string::npos);
    EXPECT_NE(json.find("\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"c\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"d\": 1.5"), std::string::npos);
}

// --- the monitor wired into a real run ------------------------------

namespace {

/** Run a small CDOALL that touches global memory on every CE. */
void
runMonitoredLoop(machine::CedarMachine &machine)
{
    runtime::LoopRunner loops(machine);
    Addr base = machine.allocGlobal(4096);
    loops.cdoall(0, 64,
                 [base](unsigned iter, unsigned,
                        std::deque<cluster::Op> &out) {
                     // Prefetched global stream + a cluster-memory
                     // vector: touches PFU, networks, modules, cache.
                     out.push_back(cluster::Op::makePrefetch(
                         base + (iter % 128) * 32, 32));
                     out.push_back(
                         cluster::Op::makeVectorFromPrefetch(32, 0, 2.0));
                     out.push_back(cluster::Op::makeVector(
                         32, cluster::VecSource::cluster_mem, 1.0,
                         Addr(iter) * 64));
                 });
}

} // namespace

TEST(PerfMonitor, CapturesEventsAcrossSubsystems)
{
    setLogQuiet(true);
    machine::CedarMachine machine;
    machine.enableMonitoring();
    runMonitoredLoop(machine);
    machine.disableMonitoring();

    const auto &mon = machine.monitor();
    EXPECT_GT(mon.tracer().events().size(), 0u);
    EXPECT_GT(mon.signalCount(Signal::net_enqueue), 0u);
    EXPECT_GT(mon.signalCount(Signal::net_dequeue), 0u);
    EXPECT_GT(mon.signalCount(Signal::module_service), 0u);
    EXPECT_GT(mon.signalCount(Signal::pfu_fire), 0u);
    EXPECT_GT(mon.signalCount(Signal::pfu_fill), 0u);
    EXPECT_GT(mon.signalCount(Signal::cache_miss), 0u);
    EXPECT_GT(mon.signalCount(Signal::loop_cdoall), 0u);
}

TEST(PerfMonitor, UncontendedGmReadRecordsFiveProbesInOrder)
{
    // The path Table 2's first-word latency crosses: forward network,
    // module, reverse network. With nothing else in flight no probe
    // sees a wait, and the reverse dequeue is the tick the data
    // reaches the port.
    setLogQuiet(true);
    machine::CedarMachine machine;
    machine.enableMonitoring();
    mem::GmResult r = machine.gm().read(0, mem::globalAddr(0), 0);
    machine.disableMonitoring();

    const auto &events = machine.monitor().tracer().events();
    const Signal expected[] = {Signal::net_enqueue, Signal::net_dequeue,
                               Signal::module_service, Signal::net_enqueue,
                               Signal::net_dequeue};
    ASSERT_EQ(events.size(), std::size(expected));
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].signal, static_cast<std::uint32_t>(expected[i]))
            << "event " << i << " should be " << signalName(expected[i]);
    }
    EXPECT_EQ(events[1].value, 0); // forward queueing
    EXPECT_EQ(events[2].value, 0); // bank wait
    EXPECT_EQ(events[4].value, 0); // reverse queueing
    EXPECT_EQ(events[4].when, r.data_at_port);
}

TEST(PerfMonitor, CountsLoopSyncConflictAndWritebackSignals)
{
    setLogQuiet(true);
    machine::CedarMachine machine;
    machine.enableMonitoring();
    runtime::LoopRunner loops(machine);
    Addr base = machine.allocGlobal(4096);
    // Self-scheduled XDOALL: the CEs claim iterations with
    // Test-And-Operate on a shared counter and all read one word, so
    // they contend for its module.
    loops.xdoall(loops.cesOfClusters(1), 16,
                 [base](unsigned, unsigned, std::deque<cluster::Op> &out) {
                     out.push_back(cluster::Op::makeGlobalRead(base));
                 });
    // SDOALL over two clusters; each iteration's inner CDOALL consumes
    // a prefetched stream.
    loops.sdoall({0, 1}, 4, [base](unsigned, unsigned) {
        runtime::LoopRunner::SdoallIteration it;
        it.inner_iters = 8;
        it.inner_body = [base](unsigned iter, unsigned,
                               std::deque<cluster::Op> &out) {
            out.push_back(cluster::Op::makePrefetch(base + iter * 32, 32));
            out.push_back(cluster::Op::makeVectorFromPrefetch(32, 0, 2.0));
        };
        return it;
    });
    // A store stream dirties cluster 0's cache; the flush writes it back.
    loops.cdoall(0, 8,
                 [](unsigned iter, unsigned, std::deque<cluster::Op> &out) {
                     out.push_back(cluster::Op::makeVector(
                         32, cluster::VecSource::cluster_mem, 1.0,
                         Addr(iter) * 32, 1, 1, true));
                 });
    machine.clusterAt(0).cache().flushAll(machine.sim().curTick());
    machine.disableMonitoring();

    const auto &mon = machine.monitor();
    for (Signal s : {Signal::pfu_consume, Signal::sync_op,
                     Signal::module_conflict, Signal::cache_writeback,
                     Signal::loop_xdoall, Signal::loop_sdoall,
                     Signal::loop_dispatch}) {
        EXPECT_GT(mon.signalCount(s), 0u) << signalName(s);
    }
}

TEST(PerfMonitor, DetachedMonitorRecordsNothing)
{
    setLogQuiet(true);
    machine::CedarMachine machine;
    runMonitoredLoop(machine);
    EXPECT_EQ(machine.monitor().tracer().events().size(), 0u);
}

TEST(MachineStats, DumpJsonCoversEverySubsystem)
{
    setLogQuiet(true);
    machine::CedarMachine machine;
    runMonitoredLoop(machine);
    std::string json = machine.stats().dumpJson();
    // Hierarchical entries from cache, network, global memory, PFU,
    // and runtime subsystems must all appear.
    EXPECT_NE(json.find("\"cache\""), std::string::npos);
    EXPECT_NE(json.find("\"fwd\""), std::string::npos);
    EXPECT_NE(json.find("\"gm\""), std::string::npos);
    EXPECT_NE(json.find("\"pfu\""), std::string::npos);
    EXPECT_NE(json.find("\"runtime\""), std::string::npos);
    EXPECT_NE(json.find("\"mod0\""), std::string::npos);
    // And the registry must agree with the machine's own counters.
    EXPECT_EQ(machine.stats().counterValue("cedar.gm.reads"),
              machine.gm().readCount());
    EXPECT_GT(machine.stats().counterValue(
                  "cedar.runtime.cdoall_starts"),
              0u);
}

// --- Chrome trace export --------------------------------------------

TEST(ChromeTrace, EmitsValidEventArray)
{
    setLogQuiet(true);
    machine::CedarMachine machine;
    machine.enableMonitoring();
    runMonitoredLoop(machine);
    machine.disableMonitoring();

    namespace fs = std::filesystem;
    fs::path path = fs::temp_directory_path() /
                    ("cedar_chrome_test_" + std::to_string(::getpid()) +
                     ".json");
    {
        ChromeTraceStream stream(path.string());
        stream.drain(machine.monitor().tracer());
        ASSERT_TRUE(stream.close());
    }
    std::ifstream in(path);
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    fs::remove(path);
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '[');
    while (!json.empty() && std::isspace(json.back()))
        json.pop_back();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.back(), ']');
    // Metadata records name the category threads...
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    // ...and instant events carry name/ph/ts/pid/tid.
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": "), std::string::npos);
    EXPECT_NE(json.find("\"pid\": "), std::string::npos);
    EXPECT_NE(json.find("\"tid\": "), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"pfu_fire\""), std::string::npos);
}
