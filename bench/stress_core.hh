/**
 * @file
 * The engine-stress workload, shared by bench/engine_stress.cc and
 * bench/trajectory_runner.cc: a gang of actors endlessly rescheduling
 * their member events at coprime strides until a shared event budget
 * drains.
 *
 * One definition, two consumers: the stress bench reports the table,
 * the trajectory runner tracks the same rate across commits. Numbers
 * from the two binaries are directly comparable because they run this
 * exact code.
 */

#ifndef CEDARSIM_BENCH_STRESS_CORE_HH
#define CEDARSIM_BENCH_STRESS_CORE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hh"

namespace cedar::bench::stress {

constexpr unsigned n_actors = 64;
constexpr std::uint64_t default_events = 2'000'000;

inline Tick
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

inline StressResult
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
 * Warm a throwaway engine, then keep the best of @p reps measured runs
 * on fresh engines — the host is shared, and a fastest-run comparison
 * is far more stable than a single sample.
 */
inline StressResult
stress(std::uint64_t events = default_events, int reps = 3)
{
    {
        Simulation warm;
        runOnce(warm, events / 20);
    }
    StressResult best{0, 0.0};
    for (int rep = 0; rep < reps; ++rep) {
        Simulation fresh;
        StressResult r = runOnce(fresh, events);
        if (rep == 0 || r.seconds < best.seconds)
            best = r;
    }
    return best;
}

} // namespace cedar::bench::stress

#endif // CEDARSIM_BENCH_STRESS_CORE_HH
