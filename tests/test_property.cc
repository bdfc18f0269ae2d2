/**
 * @file
 * Property-based tests: seeded randomized checks of contracts the
 * unit tests only probe pointwise.
 *
 *  - Engine: the (when, priority, seq) total order over every firing,
 *    under random schedules, chained scheduling, and repeated runs
 *    (run-to-run determinism).
 *  - Omega network: Lawrie tag self-routing reaches the right module
 *    from every input under every mixed-radix shape we ship, packets
 *    are conserved under flow control, and no head beats the
 *    structural minimum latency.
 *  - Machine metamorphics: relations the simulated machine must obey
 *    regardless of calibration — adding CEs never slows an
 *    embarrassingly parallel loop, and sustained memory traffic never
 *    exceeds the modules' structural peak.
 *
 * Every randomized test uses cedar::Rng with a fixed seed, so a
 * failure reproduces bit-for-bit under ctest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <tuple>
#include <vector>

#include "core/cedar.hh"
#include "sim/random.hh"
#include "test_events.hh"

using namespace cedar;

namespace {

struct QuietEnv : public ::testing::Environment
{
    void SetUp() override { setLogQuiet(true); }
};
const auto *quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

constexpr EventPriority all_priorities[] = {
    EventPriority::memory_response, EventPriority::network,
    EventPriority::normal,          EventPriority::ce_progress,
    EventPriority::stats,
};

/** One observed firing: when, at what priority, and which corpus
 *  event it was (its schedule order). */
struct Firing
{
    Tick when;
    int priority;
    unsigned index;
};

/**
 * Schedule @p n one-shots with seeded random ticks in [0, horizon) and
 * priorities across every class, run them, and return the firings.
 */
std::vector<Firing>
runRandomSchedule(std::uint64_t seed, unsigned n, Tick horizon)
{
    Rng rng(seed);
    Simulation sim;
    std::vector<Firing> fired;
    fired.reserve(n);
    std::deque<test::LambdaEvent> events;
    std::vector<std::pair<Tick, int>> expected(n);
    for (unsigned i = 0; i < n; ++i) {
        Tick when = static_cast<Tick>(rng.below(horizon));
        EventPriority prio = all_priorities[rng.below(5)];
        expected[i] = {when, static_cast<int>(prio)};
        auto record = [&fired, &sim, prio, i] {
            fired.push_back({sim.curTick(), static_cast<int>(prio), i});
        };
        sim.schedule(events.emplace_back(record, prio), when);
    }
    sim.run();
    EXPECT_EQ(fired.size(), n);
    // The engine must fire every event exactly at its corpus tick,
    // with its corpus priority.
    for (const auto &f : fired) {
        EXPECT_EQ(f.when, expected[f.index].first);
        EXPECT_EQ(f.priority, expected[f.index].second);
    }
    return fired;
}

} // namespace

// ---------------------------------------------------------------------
// Engine ordering contract
// ---------------------------------------------------------------------

TEST(EngineProperty, RandomScheduleFiresInWhenPrioritySeqOrder)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xCEDAull}) {
        auto fired = runRandomSchedule(seed, 500, 200);
        // seq is assigned at schedule time, so with all events
        // scheduled up front the contract is exactly a stable sort of
        // the schedule order by (when, priority).
        auto key = [](const Firing &f) {
            return std::make_tuple(f.when, f.priority, f.index);
        };
        for (std::size_t i = 1; i < fired.size(); ++i)
            EXPECT_LT(key(fired[i - 1]), key(fired[i]))
                << "ordering violated at firing " << i << " (seed "
                << seed << ")";
    }
}

TEST(EngineProperty, SameSeedSameFiringSequence)
{
    auto a = runRandomSchedule(7, 400, 150);
    auto b = runRandomSchedule(7, 400, 150);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].when, b[i].when);
        EXPECT_EQ(a[i].priority, b[i].priority);
        EXPECT_EQ(a[i].index, b[i].index);
    }
}

TEST(EngineProperty, ChainedSchedulingStaysOrderedAndDeterministic)
{
    // Events that schedule more events; the engine must keep time
    // monotone and the whole cascade reproducible.
    auto run = [](std::uint64_t seed) {
        Rng rng(seed);
        Simulation sim;
        std::vector<Tick> trace;
        unsigned budget = 300;
        std::deque<test::LambdaEvent> events;
        std::function<void()> spawn = [&] {
            trace.push_back(sim.curTick());
            if (budget == 0)
                return;
            unsigned children = 1 + rng.below(2);
            for (unsigned c = 0; c < children && budget > 0; ++c) {
                --budget;
                Cycles delay = rng.below(20);
                EventPriority prio = all_priorities[rng.below(5)];
                sim.scheduleIn(events.emplace_back(spawn, prio), delay);
            }
        };
        sim.schedule(events.emplace_back(spawn), 0);
        sim.run();
        return trace;
    };
    auto a = run(11);
    EXPECT_GT(a.size(), 100u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_EQ(a, run(11));
}

TEST(EngineProperty, SameTickPriorityClassesFireLowestFirst)
{
    // All five classes at one tick, scheduled in reverse priority
    // order: the class values must come out ascending regardless.
    Simulation sim;
    std::vector<int> order;
    std::deque<test::LambdaEvent> events;
    for (auto it = std::rbegin(all_priorities);
         it != std::rend(all_priorities); ++it) {
        EventPriority p = *it;
        auto record = [&order, p] { order.push_back(static_cast<int>(p)); };
        sim.schedule(events.emplace_back(record, p), 5);
    }
    sim.run();
    ASSERT_EQ(order.size(), 5u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

// ---------------------------------------------------------------------
// Omega network routing and conservation
// ---------------------------------------------------------------------

namespace {

/** Every mixed-radix shape the configurations use, plus extremes. */
const std::vector<std::vector<unsigned>> omega_shapes = {
    {8, 4},       // standard 32-port Cedar forward network
    {8, 8},       // 64-port (2-cluster scaled study)
    {8, 4, 4},    // 128-port (4x scaled study)
    {2, 2, 2},    // minimal binary 8-port
    {4, 4},       // uniform radix-4
};

} // namespace

TEST(OmegaProperty, RoutingTagHasOneInRangeDigitPerStage)
{
    for (const auto &shape : omega_shapes) {
        net::OmegaNetwork net("net", shape, 2, 1);
        for (unsigned dest = 0; dest < net.numPorts(); ++dest) {
            auto tag = net.routingTag(dest);
            ASSERT_EQ(tag.size(), net.numStages());
            for (unsigned s = 0; s < net.numStages(); ++s)
                EXPECT_LT(tag[s], net.stageRadix(s));
        }
    }
}

TEST(OmegaProperty, EveryInputReachesEveryModule)
{
    // Self-routing correctness: following the Lawrie tag from ANY
    // input port must land on exactly the requested output port.
    for (const auto &shape : omega_shapes) {
        net::OmegaNetwork net("net", shape, 2, 1);
        for (unsigned in = 0; in < net.numPorts(); ++in) {
            for (unsigned dest = 0; dest < net.numPorts(); ++dest) {
                auto hops = net.path(in, dest);
                ASSERT_EQ(hops.size(), net.numStages());
                for (unsigned s = 0; s < hops.size(); ++s) {
                    EXPECT_EQ(hops[s].first, s);
                    EXPECT_LT(hops[s].second, net.numPorts());
                }
                EXPECT_EQ(hops.back().second, dest)
                    << "in=" << in << " dest=" << dest;
            }
        }
    }
}

TEST(OmegaProperty, DistinctDestinationsNeverShareAFinalPort)
{
    // From one input, the paths to two different modules must diverge
    // by the last stage (unique-path property of omega networks).
    net::OmegaNetwork net("net", {8, 4}, 2, 1);
    for (unsigned in = 0; in < net.numPorts(); in += 5) {
        std::vector<bool> seen(net.numPorts(), false);
        for (unsigned dest = 0; dest < net.numPorts(); ++dest) {
            unsigned final_port = net.path(in, dest).back().second;
            EXPECT_FALSE(seen[final_port]);
            seen[final_port] = true;
        }
    }
}

TEST(OmegaProperty, PacketsAreConservedUnderFlowControl)
{
    // Random traffic with nondecreasing inject times: every injected
    // word must eventually cross the final stage, with both bounded
    // (two-word Cedar switches) and unbounded port queues.
    for (unsigned queue_words : {2u, 0u}) {
        Rng rng(0xBEEF);
        net::OmegaNetwork net("net", {8, 4}, 2, 1, queue_words);
        std::uint64_t injected = 0;
        Tick inject = 0;
        for (unsigned p = 0; p < 2000; ++p) {
            inject += static_cast<Tick>(rng.below(3));
            unsigned in = static_cast<unsigned>(
                rng.below(net.numPorts()));
            unsigned dest = static_cast<unsigned>(
                rng.below(net.numPorts()));
            unsigned words = 1 + static_cast<unsigned>(rng.below(4));
            auto res = net.traverse(in, dest, words, inject);
            injected += words;
            EXPECT_GE(res.head_arrival,
                      inject + net.minLatency());
            EXPECT_GE(res.tail_arrival, res.head_arrival);
        }
        EXPECT_EQ(net.deliveredWords(), injected);
    }
}

TEST(OmegaProperty, UncontendedHeadLatencyIsExactlyMinimal)
{
    net::OmegaNetwork net("net", {8, 4}, 2, 1);
    Rng rng(3);
    Tick inject = 0;
    for (unsigned p = 0; p < 50; ++p) {
        // Large gaps guarantee no queueing; latency must equal the
        // structural minimum, never less, never silently more.
        inject += 1000;
        unsigned in = static_cast<unsigned>(rng.below(net.numPorts()));
        unsigned dest =
            static_cast<unsigned>(rng.below(net.numPorts()));
        auto res = net.traverse(in, dest, 2, inject);
        EXPECT_EQ(res.head_arrival, inject + net.minLatency());
        EXPECT_EQ(res.queueing, 0u);
    }
}

// ---------------------------------------------------------------------
// Machine metamorphic invariants
// ---------------------------------------------------------------------

namespace {

/** Join tick of an embarrassingly parallel XDOALL on @p ces CEs. */
Tick
parallelLoopTime(unsigned ces)
{
    machine::CedarMachine machine;
    runtime::LoopRunner runner(machine);
    auto all = runner.allCes();
    all.resize(ces);
    // Heavy independent iterations: compute dominates the runtime's
    // fetch overhead, so the speedup must be visible.
    return runner.xdoall(
        all, 128,
        [](unsigned, unsigned, std::deque<cluster::Op> &out) {
            out.push_back(cluster::Op::makeScalar(50000, 100.0));
        },
        runtime::Schedule::static_chunked);
}

} // namespace

TEST(MachineMetamorphic, MoreCesNeverSlowAParallelLoop)
{
    Tick t8 = parallelLoopTime(8);
    Tick t16 = parallelLoopTime(16);
    Tick t32 = parallelLoopTime(32);
    EXPECT_LE(t16, t8);
    EXPECT_LE(t32, t16);
    // And the speedup is real, not just monotone-by-epsilon.
    EXPECT_LT(static_cast<double>(t32), 0.5 * t8);
}

TEST(MachineMetamorphic, MemoryInterarrivalRespectsModulePeak)
{
    // 32 CEs streaming loads: aggregate bandwidth can never exceed
    // num_modules / module_access_cycles words per cycle, i.e. the
    // per-CE mean interarrival has a structural floor.
    auto cfg = machine::CedarConfig::standard();
    machine::CedarMachine machine(cfg);
    kernels::VloadParams params;
    params.ces = 32;
    params.repetitions = 200;
    auto res = kernels::runVload(machine, params);
    double floor_cycles =
        static_cast<double>(params.ces) *
        static_cast<double>(cfg.gm.module_access_cycles) /
        static_cast<double>(cfg.gm.num_modules);
    EXPECT_GE(res.mean_interarrival, floor_cycles);
    // Latency can never beat the uncontended round trip.
    EXPECT_GE(res.mean_latency, 8.0);
}

TEST(MachineMetamorphic, IdenticalRunsProduceIdenticalTicks)
{
    // Full-machine determinism: two fresh machines running the same
    // kernel agree on every timing statistic bit-for-bit.
    auto run = [] {
        machine::CedarMachine machine;
        kernels::VloadParams params;
        params.ces = 16;
        params.repetitions = 100;
        return kernels::runVload(machine, params);
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
    EXPECT_DOUBLE_EQ(a.mean_interarrival, b.mean_interarrival);
}
