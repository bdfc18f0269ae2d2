/**
 * @file
 * The engine-stress workloads, shared by bench/engine_stress.cc and
 * bench/trajectory_runner.cc: a gang of actors endlessly rescheduling
 * their member events at coprime strides until a shared event budget
 * drains, and a Cedar-shaped partition graph for the parallel engine.
 *
 * One definition of each workload, two consumers: the stress bench
 * reports the tables, the trajectory runner tracks the same rates
 * across commits. Numbers from the two binaries are directly
 * comparable because they run this exact code.
 */

#ifndef CEDARSIM_BENCH_STRESS_CORE_HH
#define CEDARSIM_BENCH_STRESS_CORE_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/pdes.hh"

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

/**
 * The parallel-engine workload: a Cedar-shaped partition graph — four
 * cluster logical processes around one network+memory complex — where
 * every cluster runs a self-rescheduling compute cascade and fires a
 * request at the complex each `request_period` steps; the complex does
 * its own work and answers back. Per-event busy-work emulates a
 * component's model cost, giving the windows something to overlap.
 *
 * Every partition folds its work into a private checksum; the combined
 * checksum is thread-count invariant (the coordinator's determinism
 * contract), and both consumers assert it: the stress bench against
 * threads=1, the trajectory probe across its whole thread ladder.
 */
struct PdesResult
{
    double seconds;
    std::uint64_t checksum;
    std::uint64_t events;
};

constexpr unsigned pdes_clusters = 4;
constexpr Tick pdes_channel_latency = 8;
constexpr Tick pdes_default_horizon = 40'000;
constexpr unsigned pdes_default_work = 400;

/** splitmix64 round: cheap, well-mixed busy-work and checksum step. */
inline std::uint64_t
pdesMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Each channel's sender reuses a ring of this many message events. A
 * slot comes round again only after that many further sends, and a
 * channel's sends are at least one tick apart, so the slot's previous
 * message arrived at least one lookahead earlier: it fired in an
 * earlier window, and no other thread still touches it.
 */
constexpr unsigned pdes_ring_slots = 2 * pdes_channel_latency;

/** One run of the parallel-engine workload. */
class PdesRun
{
  public:
    PdesRun(unsigned threads, Tick horizon, unsigned work_rounds,
            unsigned request_period)
        : _coord("bench.pdes", threads), _horizon(horizon),
          _work_rounds(work_rounds), _period(request_period)
    {
        _complex_lp = _coord.addPartition("bench.pdes.complex");
        for (unsigned c = 0; c < pdes_clusters; ++c) {
            Cluster &cl = _clusters[c];
            cl.lp = _coord.addPartition("bench.pdes.c" + std::to_string(c));
            cl.to_complex = _coord.addChannel(cl.lp, _complex_lp,
                                              pdes_channel_latency);
            cl.to_cluster = _coord.addChannel(_complex_lp, cl.lp,
                                              pdes_channel_latency);
            cl.cascade.bind(*this, &PdesRun::cascade, c);
            for (unsigned k = 0; k < pdes_ring_slots; ++k) {
                cl.requests[k].bind(*this, &PdesRun::serve, c);
                cl.replies[k].bind(*this, &PdesRun::answer, c);
            }
        }
    }

    PdesResult
    run()
    {
        for (unsigned c = 0; c < pdes_clusters; ++c) {
            _clusters[c].sum = pdesMix(c + 1);
            _coord.partition(_clusters[c].lp)
                .schedule(_clusters[c].cascade, 1 + c);
        }
        auto t0 = std::chrono::steady_clock::now();
        _coord.runUntil(_horizon);
        auto t1 = std::chrono::steady_clock::now();

        std::uint64_t checksum = _complex_sum;
        for (const auto &cl : _clusters)
            checksum = pdesMix(checksum ^ cl.sum);
        return PdesResult{std::chrono::duration<double>(t1 - t0).count(),
                          checksum, _coord.eventsExecuted()};
    }

  private:
    using Handler = void (PdesRun::*)(unsigned cluster,
                                      std::uint64_t value);

    /** Calls a PdesRun handler with its cluster and carried value. */
    class Step : public Event
    {
      public:
        void
        bind(PdesRun &run, Handler handler, unsigned cluster)
        {
            _run = &run;
            _handler = handler;
            _cluster = cluster;
        }

        void process() override { (_run->*_handler)(_cluster, value); }
        const char *description() const override { return "stress.pdes"; }

        std::uint64_t value = 0;

      private:
        PdesRun *_run = nullptr;
        Handler _handler = nullptr;
        unsigned _cluster = 0;
    };

    struct Cluster
    {
        unsigned lp = 0;
        unsigned to_complex = 0;
        unsigned to_cluster = 0;
        std::uint64_t sum = 0;
        std::uint64_t step = 0;
        Step cascade;
        /** This cluster's requests, and the complex's replies to it. */
        std::array<Step, pdes_ring_slots> requests;
        std::array<Step, pdes_ring_slots> replies;
        unsigned next_request = 0;
        unsigned next_reply = 0;
    };

    std::uint64_t
    burn(std::uint64_t seed) const
    {
        std::uint64_t v = seed;
        for (unsigned i = 0; i < _work_rounds; ++i)
            v = pdesMix(v);
        return v;
    }

    /**
     * Cluster @p c's cascade: burn, fold, rearm; every request_period
     * steps ask the complex for "service", whose reply folds back in.
     */
    void
    cascade(unsigned c, std::uint64_t)
    {
        Cluster &cl = _clusters[c];
        Simulation &sim = _coord.partition(cl.lp);
        if (sim.curTick() >= _horizon)
            return;
        cl.sum ^= burn(cl.sum + sim.curTick() + c);
        ++cl.step;
        if (cl.step % _period == 0) {
            Step &req = cl.requests[cl.next_request++ % pdes_ring_slots];
            req.value = cl.sum;
            _coord.send(cl.to_complex, req,
                        sim.curTick() + pdes_channel_latency);
        }
        sim.schedule(cl.cascade, sim.curTick() + 1 + c % 3);
    }

    /** The complex serves cluster @p c's request and replies. */
    void
    serve(unsigned c, std::uint64_t payload)
    {
        Cluster &cl = _clusters[c];
        Simulation &cx = _coord.partition(_complex_lp);
        _complex_sum ^= burn(payload + cx.curTick());
        Step &reply = cl.replies[cl.next_reply++ % pdes_ring_slots];
        reply.value = _complex_sum;
        _coord.send(cl.to_cluster, reply,
                    cx.curTick() + pdes_channel_latency);
    }

    void answer(unsigned c, std::uint64_t reply) { _clusters[c].sum ^= reply; }

    EngineCoordinator _coord;
    Tick _horizon;
    unsigned _work_rounds;
    unsigned _period;
    unsigned _complex_lp = 0;
    std::uint64_t _complex_sum = 0;
    std::array<Cluster, pdes_clusters> _clusters;
};

inline PdesResult
runPdesOnce(unsigned threads, Tick horizon, unsigned work_rounds,
            unsigned request_period = 3)
{
    return PdesRun(threads, horizon, work_rounds, request_period).run();
}

/** Warm once, then best-of-@p reps (same policy as stress()). */
inline PdesResult
runPdes(unsigned threads, Tick horizon = pdes_default_horizon,
        unsigned work_rounds = pdes_default_work, int reps = 3)
{
    runPdesOnce(threads, horizon / 10, work_rounds);
    PdesResult best = runPdesOnce(threads, horizon, work_rounds);
    for (int rep = 1; rep < reps; ++rep) {
        PdesResult r = runPdesOnce(threads, horizon, work_rounds);
        if (r.seconds < best.seconds)
            best = r;
    }
    return best;
}

/** Thread counts the PDES workload is timed at; 1 is the reference. */
constexpr unsigned pdes_thread_ladder[] = {1, 2, 4};

/** The PDES workload at each thread count of the ladder. */
struct PdesLadder
{
    std::array<PdesResult, std::size(pdes_thread_ladder)> runs;

    /** Best threads > 1 wall-clock speedup over threads = 1; below
     *  1.0 when every parallel run is slower than the serial one. */
    double
    bestSpeedup() const
    {
        double best = 0.0;
        for (std::size_t i = 1; i < runs.size(); ++i)
            best = std::max(best, runs[0].seconds / runs[i].seconds);
        return best;
    }
};

/**
 * Run the ladder. A checksum that differs from the threads=1 run
 * breaks the determinism contract: report it and exit rather than
 * time a fast-but-wrong engine.
 */
inline PdesLadder
runPdesLadder()
{
    PdesLadder ladder;
    for (std::size_t i = 0; i < ladder.runs.size(); ++i) {
        ladder.runs[i] = runPdes(pdes_thread_ladder[i]);
        if (ladder.runs[i].checksum != ladder.runs[0].checksum) {
            std::fprintf(stderr,
                         "FATAL: pdes checksum diverged at %u threads\n",
                         pdes_thread_ladder[i]);
            std::exit(1);
        }
    }
    return ladder;
}

} // namespace cedar::bench::stress

#endif // CEDARSIM_BENCH_STRESS_CORE_HH
