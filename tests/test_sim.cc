/**
 * @file
 * Unit tests for the simulation core: event ordering, time semantics,
 * statistics, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <set>

#include "machine/cedar.hh"
#include "runtime/loops.hh"
#include "sim/engine.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "test_events.hh"

using namespace cedar;
using cedar::test::LambdaEvent;

namespace {

/** Records its id into a shared log when fired. */
class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> &log, int id,
                   EventPriority prio = EventPriority::normal)
        : Event(prio), _log(log), _id(id)
    {
    }

    void process() override { _log.push_back(_id); }
    const char *description() const override { return "test.recording"; }

  private:
    std::vector<int> &_log;
    int _id;
};

} // namespace

TEST(Engine, RunsEventsInTimeOrder)
{
    Simulation sim;
    std::vector<int> order;
    RecordingEvent third(order, 3), first(order, 1), second(order, 2);
    sim.schedule(third, 30);
    sim.schedule(first, 10);
    sim.schedule(second, 20);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.curTick(), 30u);
}

TEST(Engine, SameTickOrderedByPriorityThenInsertion)
{
    Simulation sim;
    std::vector<int> order;
    RecordingEvent second(order, 2, EventPriority::ce_progress);
    RecordingEvent third(order, 3, EventPriority::ce_progress);
    RecordingEvent first(order, 1);
    sim.schedule(second, 5);
    sim.schedule(third, 5);
    sim.schedule(first, 5);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, EventsCanScheduleEvents)
{
    Simulation sim;
    int fired = 0;
    LambdaEvent later([&] { ++fired; });
    LambdaEvent first([&] {
        ++fired;
        sim.scheduleIn(later, 9);
    });
    sim.schedule(first, 1);
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.curTick(), 10u);
}

TEST(Engine, SchedulingInThePastPanics)
{
    Simulation sim;
    LambdaEvent past([] {});
    LambdaEvent probe(
        [&] { EXPECT_THROW(sim.schedule(past, 5), std::logic_error); });
    sim.schedule(probe, 10);
    sim.run();
}

TEST(Engine, RunUntilStopsAtHorizonAndResumes)
{
    Simulation sim;
    int fired = 0;
    LambdaEvent a([&] { ++fired; }), b([&] { ++fired; });
    sim.schedule(a, 10);
    sim.schedule(b, 100);
    sim.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.curTick(), 50u);
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.curTick(), 100u);
}

TEST(Engine, RunUntilBelowNowNeverRewindsTheClock)
{
    Simulation sim;
    int fired = 0;
    LambdaEvent a([&] { ++fired; }), b([&] { ++fired; }), late([] {});
    sim.schedule(a, 150);
    sim.schedule(b, 200);
    sim.runUntil(150);
    ASSERT_EQ(sim.curTick(), 150u);
    // A horizon behind the clock with an event still queued past it:
    // nothing fires and time must not run backwards.
    EXPECT_EQ(sim.runUntil(50), 150u);
    EXPECT_EQ(sim.curTick(), 150u);
    EXPECT_THROW(sim.schedule(late, 60), std::logic_error);
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.curTick(), 200u);
}

TEST(Types, TickConversionsRoundTrip)
{
    EXPECT_DOUBLE_EQ(ticksToSeconds(0), 0.0);
    // One cycle is 170 ns.
    EXPECT_DOUBLE_EQ(ticksToSeconds(1), 170e-9);
    EXPECT_DOUBLE_EQ(ticksToMicros(1000), 170.0);
    // 90 us is about 530 cycles.
    EXPECT_EQ(microsToTicks(90.0), 530u);
    EXPECT_NEAR(ticksToMicros(microsToTicks(90.0)), 90.0, 0.2);
}

TEST(Types, MflopsArithmetic)
{
    // 2 flops per cycle at 170 ns => 11.76 MFLOPS.
    double rate = mflops(2.0e6, 1000000);
    EXPECT_NEAR(rate, 11.76, 0.01);
    EXPECT_DOUBLE_EQ(mflops(100.0, 0), 0.0);
}

TEST(Stats, SampleStatSummaries)
{
    SampleStat s;
    for (double v : {2.0, 4.0, 6.0, 8.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
    EXPECT_NEAR(s.stddev(), 2.582, 1e-3);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Stats, HarmonicMeanMatchesHandComputation)
{
    // Harmonic mean of 2 and 6 is 3.
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 6.0}), 3.0);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({2.0, 6.0}), 4.0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(r.below(17), 17u);
    }
}

TEST(DeriveSeed, PureUniqueAndMasterDependent)
{
    const std::uint64_t master = 0xCEDAE8ECULL;
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        std::uint64_t s = deriveSeed(master, i);
        EXPECT_EQ(s, deriveSeed(master, i));
        EXPECT_TRUE(seen.insert(s).second)
            << "seed collision at index " << i;
    }
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(2, 0));
}

// ----------------------------------------------------------- event objects

TEST(EventObjects, ScheduleFireAndStateTransitions)
{
    Simulation sim;
    std::vector<int> log;
    RecordingEvent ev(log, 1);
    EXPECT_FALSE(ev.scheduled());
    sim.schedule(ev, 10);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 10u);
    sim.run();
    EXPECT_FALSE(ev.scheduled());
    EXPECT_EQ(log, (std::vector<int>{1}));
    // The object is reusable after firing.
    sim.schedule(ev, 20);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 1}));
}

TEST(EventObjects, DescheduledEventNeverFires)
{
    Simulation sim;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    sim.schedule(a, 10);
    sim.schedule(b, 20);
    sim.deschedule(a);
    EXPECT_FALSE(a.scheduled());
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventObjects, RescheduleMovesAndTiesLast)
{
    Simulation sim;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    sim.schedule(a, 10);
    sim.schedule(b, 30);
    // Moving a to b's tick re-enters insertion order: it now ties
    // after b despite having been scheduled first.
    sim.reschedule(a, 30);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    // reschedule() also schedules an idle event.
    sim.reschedule(a, 40);
    EXPECT_TRUE(a.scheduled());
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1, 1}));
}

TEST(EventObjects, DestructorDeschedules)
{
    Simulation sim;
    std::vector<int> log;
    RecordingEvent keeper(log, 1);
    sim.schedule(keeper, 50);
    {
        RecordingEvent doomed(log, 2);
        sim.schedule(doomed, 10);
    }
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(sim.curTick(), 50u);
}

TEST(EventObjects, SameTickMemberEventsOrderedByPriorityThenSeq)
{
    Simulation sim;
    std::vector<int> log;
    RecordingEvent late(log, 3, EventPriority::stats);
    RecordingEvent first(log, 1, EventPriority::normal);
    RecordingEvent mid_a(log, 2, EventPriority::ce_progress);
    RecordingEvent mid_b(log, 4, EventPriority::ce_progress);
    sim.schedule(late, 10);
    sim.schedule(mid_a, 10);
    sim.schedule(first, 10);
    sim.schedule(mid_b, 10);
    sim.run();
    // Priority classes first; equal priorities in insertion order.
    EXPECT_EQ(log, (std::vector<int>{1, 2, 4, 3}));
}

TEST(EventObjects, MachineStatSnapshotsBitIdenticalAcrossRuns)
{
    // The golden determinism contract of the event-object engine: two
    // fresh machines running the same workload — touching every
    // converted path (CE advance, PFU consumption, CCB barriers,
    // CDOALL/XDOALL/SDOALL contexts) — must produce bit-identical
    // stat registries.
    auto run = [] {
        machine::CedarMachine machine;
        runtime::LoopRunner runner(machine);
        Addr data = machine.allocGlobal(256);
        runner.cdoall(
            0, 24,
            [&](unsigned i, unsigned, std::deque<cluster::Op> &out) {
                out.push_back(cluster::Op::makeVector(
                    32, cluster::VecSource::cache, 2.0));
                out.push_back(
                    cluster::Op::makeGlobalRead(data + (i % 256)));
            });
        runner.xdoall(
            runner.allCes(), 48,
            [&](unsigned, unsigned, std::deque<cluster::Op> &out) {
                out.push_back(cluster::Op::makePrefetch(data, 16));
                out.push_back(
                    cluster::Op::makeVectorFromPrefetch(16, 0, 2.0));
            });
        runner.sdoall(
            {0, 1}, 6, [](unsigned, unsigned) {
                runtime::LoopRunner::SdoallIteration it;
                it.serial_cycles = 50;
                it.inner_iters = 8;
                it.inner_body = [](unsigned, unsigned,
                                   std::deque<cluster::Op> &out) {
                    out.push_back(cluster::Op::makeScalar(20));
                };
                return it;
            });
        return machine.stats().snapshot();
    };
    auto first = run();
    auto second = run();
    EXPECT_EQ(first, second);
    EXPECT_GT(first.at("cedar.sim.events"), 0.0);
    EXPECT_GT(first.at("cedar.runtime.iterations"), 0.0);
}
