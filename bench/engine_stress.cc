/**
 * @file
 * Host-side stress test of the event engine. Simulating billions of
 * machine cycles is only practical if the engine itself is fast, so
 * this bench measures raw events per host second for component-owned
 * member events rescheduled intrusively (the CE advance path, no
 * allocation per event): a gang of actors endlessly rescheduling their
 * member events at coprime strides until a shared event budget drains.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/cedar.hh"

using namespace cedar;

namespace {

constexpr unsigned n_actors = 64;
constexpr std::uint64_t n_events = 2'000'000;
constexpr int best_of = 3;

Tick
strideOf(unsigned actor)
{
    // Coprime-ish strides so the heap sees real interleaving, not one
    // tick bucket.
    return 1 + (actor * 7) % 13;
}

/** Member-event actor: reschedules its own event object. */
class MemberActor
{
  public:
    MemberActor(Simulation &sim, Tick stride, std::uint64_t &budget)
        : _sim(sim), _stride(stride), _budget(budget)
    {
    }

    void start() { _sim.schedule(_event, _sim.curTick() + _stride); }

    void
    fire()
    {
        if (_budget == 0)
            return;
        --_budget;
        _sim.schedule(_event, _sim.curTick() + _stride);
    }

  private:
    Simulation &_sim;
    Tick _stride;
    std::uint64_t &_budget;
    MemberEvent<MemberActor, &MemberActor::fire> _event{
        *this, EventPriority::normal, "stress.member"};
};

struct StressResult
{
    std::uint64_t events;
    double seconds;

    double rate() const { return events / seconds; }
};

StressResult
runOnce(Simulation &sim, std::uint64_t budget)
{
    // Events pin their owner's address, so actors live behind pointers.
    std::vector<std::unique_ptr<MemberActor>> actors;
    actors.reserve(n_actors);
    for (unsigned i = 0; i < n_actors; ++i)
        actors.push_back(
            std::make_unique<MemberActor>(sim, strideOf(i), budget));
    for (auto &a : actors)
        a->start();
    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    auto t1 = std::chrono::steady_clock::now();
    return StressResult{
        sim.eventsExecuted(),
        std::chrono::duration<double>(t1 - t0).count()};
}

/**
 * Warm a throwaway engine, then keep the best of best_of measured runs
 * on fresh engines — the host is shared, and a fastest-run comparison
 * is far more stable than a single sample.
 */
StressResult
stress()
{
    {
        Simulation warm;
        runOnce(warm, n_events / 20);
    }
    StressResult best{0, 0.0};
    for (int rep = 0; rep < best_of; ++rep) {
        Simulation fresh;
        StressResult r = runOnce(fresh, n_events);
        if (rep == 0 || r.seconds < best.seconds)
            best = r;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    core::BenchOutput out("engine_stress", argc, argv);

    std::printf("Engine stress: %u actors, %llu-event budget\n\n",
                n_actors, static_cast<unsigned long long>(n_events));

    StressResult member = stress();
    core::TableWriter table({"style", "events", "host s", "M events/s"});
    table.row({"member events", std::to_string(member.events),
               core::fmt(member.seconds, 3),
               core::fmt(member.rate() / 1e6, 2)});
    table.print();

    out.metric("member_events_per_sec", member.rate());
    out.emit();
    return 0;
}
