/**
 * @file
 * Seeded fuzz corpora for the engine-ordering contract, shared between
 * tests/test_property.cc (serial engine) and tests/test_pdes.cc
 * (parallel engine). One corpus definition, several executions: the
 * serial reference, the windowed coordinator at any thread count, and
 * a partition-tagged serial run — so "same corpus, different engine"
 * comparisons are comparisons of the engines, never of the inputs.
 *
 * Everything an event does here (its tick, priority, local chain, and
 * any cross-partition message it emits) is derived by hashing its own
 * identity with the corpus seed — never from global execution order —
 * so the set of firings and their (tick, priority) are engine-
 * independent by construction, and any divergence a test observes is
 * the engine's fault.
 *
 * Every corpus event is a LambdaEvent owned by a std::deque that
 * outlives the run: one per partition for events made during a
 * coordinated run, so each partition's thread appends only to its own.
 */

#ifndef CEDARSIM_TESTS_FUZZ_SCHEDULE_HH
#define CEDARSIM_TESTS_FUZZ_SCHEDULE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <tuple>
#include <vector>

#include "sim/engine.hh"
#include "sim/pdes.hh"
#include "sim/random.hh"
#include "test_events.hh"

namespace cedar::test::fuzz {

constexpr EventPriority fuzz_priorities[] = {
    EventPriority::memory_response, EventPriority::network,
    EventPriority::normal,          EventPriority::ce_progress,
    EventPriority::stats,
};

/** One observed firing: where, when, at what priority, and which
 *  corpus event it was (identity survives engine changes). */
struct Firing
{
    Tick when;
    int priority;
    unsigned partition;
    unsigned index;

    auto
    key() const
    {
        return std::make_tuple(when, priority, partition, index);
    }

    bool
    operator==(const Firing &o) const
    {
        return key() == o.key();
    }
};

/** splitmix64: identity -> data, with no execution-order dependence. */
inline std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

inline std::uint64_t
hash3(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    return mix(seed ^ mix(a ^ mix(b)));
}

/**
 * The flat corpus (no messages): @p n one-shots with seeded random
 * ticks in [0, horizon) and priorities across every class. The
 * generation stream matches the original property-test helper, so
 * serial-engine expectations carry over unchanged.
 *
 * @p schedule is called as schedule(i, when, prio) and decides
 * where event i lives — one engine, or partition i % P of many.
 */
template <class ScheduleFn>
void
buildFlatCorpus(std::uint64_t seed, unsigned n, Tick horizon,
                ScheduleFn &&schedule)
{
    Rng rng(seed);
    for (unsigned i = 0; i < n; ++i) {
        Tick when = static_cast<Tick>(rng.below(horizon));
        EventPriority prio = fuzz_priorities[rng.below(5)];
        schedule(i, when, prio);
    }
}

/**
 * Run the flat corpus on one serial Simulation (the reference) and
 * return the firing order. Identity: partition 0, index = schedule
 * order.
 */
inline std::vector<Firing>
runFlatSerial(std::uint64_t seed, unsigned n, Tick horizon)
{
    Simulation sim;
    std::vector<Firing> fired;
    fired.reserve(n);
    std::deque<LambdaEvent> events;
    buildFlatCorpus(seed, n, horizon,
                    [&](unsigned i, Tick when, EventPriority prio) {
                        auto record = [&fired, &sim, prio, i] {
                            fired.push_back({sim.curTick(),
                                             static_cast<int>(prio), 0, i});
                        };
                        sim.schedule(events.emplace_back(record, prio),
                                     when);
                    });
    sim.run();
    return fired;
}

/**
 * Run the SAME flat corpus spread round-robin over @p partitions
 * coordinator partitions (no channels — fully independent queues) and
 * return each partition's own firing order. Identity keeps the global
 * corpus index, so a canonical sort is directly comparable with the
 * serial reference.
 */
inline std::vector<std::vector<Firing>>
runFlatPartitioned(std::uint64_t seed, unsigned n, Tick horizon,
                   unsigned partitions, unsigned threads)
{
    EngineCoordinator coord("fuzz.flat", threads);
    for (unsigned p = 0; p < partitions; ++p)
        coord.addPartition("fuzz.flat.p" + std::to_string(p));
    std::vector<std::vector<Firing>> fired(partitions);
    std::deque<LambdaEvent> events;
    buildFlatCorpus(
        seed, n, horizon,
        [&](unsigned i, Tick when, EventPriority prio) {
            unsigned p = i % partitions;
            Simulation &sim = coord.partition(p);
            auto record = [&fired, &sim, prio, p, i] {
                fired[p].push_back(
                    {sim.curTick(), static_cast<int>(prio), p, i});
            };
            sim.schedule(events.emplace_back(record, prio), when);
        });
    coord.run();
    return fired;
}

/** Parameters for the cross-partition message corpus. */
struct MessageCorpus
{
    std::uint64_t seed = 1;
    unsigned partitions = 4;
    /** Genesis chains started per partition. */
    unsigned chains = 24;
    /** Genesis ticks land in [0, horizon). */
    Tick horizon = 400;
    /** Channel minimum latency (every ordered partition pair gets a
     *  channel, declared in (src, dst) lexicographic order). */
    Tick latency = 5;
};

/**
 * The corpus driver, parametric over the execution environment so the
 * serial reference and the coordinated runs execute byte-for-byte the
 * same corpus. Every partition seeds `chains` local event chains; each
 * chain step does a seeded-random local reschedule and, about a third
 * of the time, "sends" to a seeded-random other partition, whose
 * delivery records a firing on the destination — exactly what the
 * windowed engine must keep deterministic: same-tick cross-channel
 * merges, windows with several active partitions, solo-drain tails.
 *
 * Env contract (each call that takes @p fn makes one owned event that
 * runs it):
 *   Tick now(unsigned p)                      — partition p's clock
 *   void record(unsigned p, int prio, unsigned index)
 *   void scheduleAt(p, Tick when, EventPriority, fn)
 *   void scheduleIn(p, Cycles delta, EventPriority, fn)
 *   void sendMsg(src, dst, Tick arrival, EventPriority, unsigned index)
 *       — deliver a firing with that identity on dst at arrival
 *
 * @p step must outlive the run (the environment's engine drains it).
 */
template <class Env>
void
driveMessageCorpus(const MessageCorpus &mc, Env &env,
                   std::function<void(unsigned, unsigned, unsigned)>
                       &step)
{
    step = [&mc, &env, &step](unsigned p, unsigned id, unsigned s) {
        std::uint64_t h = hash3(mc.seed, id, s);
        unsigned index = id * 16 + s;
        env.record(p, static_cast<int>(h % 5), index);
        if (h % 3 == 0) {
            unsigned dst =
                (p + 1 + unsigned(h >> 8) % (mc.partitions - 1)) %
                mc.partitions;
            Tick arrival = env.now(p) + mc.latency + (h >> 16) % 7;
            env.sendMsg(p, dst, arrival,
                        fuzz_priorities[(h >> 24) % 5],
                        1'000'000 + index);
        }
        if (s + 1 < 8 && (h >> 32) % 4 != 0) {
            env.scheduleIn(p, 1 + (h >> 40) % 9,
                           fuzz_priorities[(h >> 48) % 5],
                           [&step, p, id, s] { step(p, id, s + 1); });
        }
    };
    for (unsigned p = 0; p < mc.partitions; ++p) {
        for (unsigned g = 0; g < mc.chains; ++g) {
            unsigned id = p * mc.chains + g;
            std::uint64_t h = hash3(mc.seed, id, 999);
            env.scheduleAt(p, h % mc.horizon,
                           fuzz_priorities[(h >> 8) % 5],
                           [&step, p, id] { step(p, id, 0); });
        }
    }
}

/**
 * The message corpus's environment under an EngineCoordinator with a
 * full channel mesh. Each partition owns the events made on it and
 * the messages it sends.
 */
struct CoordEnv
{
    EngineCoordinator coord;
    std::vector<std::vector<unsigned>> chan;
    std::vector<std::vector<Firing>> fired;
    std::vector<std::deque<LambdaEvent>> owned;

    CoordEnv(const MessageCorpus &mc, unsigned threads)
        : coord("fuzz.msg", threads),
          chan(mc.partitions, std::vector<unsigned>(mc.partitions, 0)),
          fired(mc.partitions), owned(mc.partitions)
    {
        for (unsigned p = 0; p < mc.partitions; ++p)
            coord.addPartition("fuzz.msg.p" + std::to_string(p));
        // Channel ids in (src, dst) lexicographic order — fixed
        // declaration order is part of the merge-rule contract.
        for (unsigned s = 0; s < mc.partitions; ++s)
            for (unsigned d = 0; d < mc.partitions; ++d)
                if (s != d)
                    chan[s][d] = coord.addChannel(s, d, mc.latency);
    }

    Tick now(unsigned p) { return coord.partition(p).curTick(); }

    void
    record(unsigned p, int prio, unsigned index)
    {
        fired[p].push_back({coord.partition(p).curTick(), prio, p, index});
    }

    void
    scheduleAt(unsigned p, Tick when, EventPriority prio,
               std::function<void()> fn)
    {
        coord.partition(p).schedule(
            owned[p].emplace_back(std::move(fn), prio), when);
    }

    void
    scheduleIn(unsigned p, Cycles delta, EventPriority prio,
               std::function<void()> fn)
    {
        coord.partition(p).scheduleIn(
            owned[p].emplace_back(std::move(fn), prio), delta);
    }

    void
    sendMsg(unsigned src, unsigned dst, Tick arrival, EventPriority prio,
            unsigned index)
    {
        auto deliver = [this, dst, prio, index] {
            record(dst, static_cast<int>(prio), index);
        };
        coord.send(chan[src][dst], owned[src].emplace_back(deliver, prio),
                   arrival);
    }
};

/**
 * Run the message corpus under an EngineCoordinator with a full
 * channel mesh. Returns per-partition firing traces (execution
 * order). The firing multiset — identity, tick, priority — is engine-
 * and thread-invariant; the per-partition order is the determinism
 * contract's strict form.
 */
inline std::vector<std::vector<Firing>>
runMessageCorpus(const MessageCorpus &mc, unsigned threads)
{
    CoordEnv env(mc, threads);
    std::function<void(unsigned, unsigned, unsigned)> step;
    driveMessageCorpus(mc, env, step);
    env.coord.run();
    return std::move(env.fired);
}

/**
 * Run the SAME message corpus on one serial Simulation — the
 * reference semantics: partitions are tags, "messages" are ordinary
 * schedules. Canonical traces from this and from runMessageCorpus at
 * any thread count must be identical.
 */
inline std::vector<std::vector<Firing>>
runMessageSerial(const MessageCorpus &mc)
{
    struct SerialEnv
    {
        Simulation sim;
        std::vector<std::vector<Firing>> fired;
        std::deque<LambdaEvent> owned;

        explicit SerialEnv(const MessageCorpus &mc)
            : fired(mc.partitions)
        {
        }

        Tick now(unsigned) { return sim.curTick(); }

        void
        record(unsigned p, int prio, unsigned index)
        {
            fired[p].push_back({sim.curTick(), prio, p, index});
        }

        void
        scheduleAt(unsigned, Tick when, EventPriority prio,
                   std::function<void()> fn)
        {
            sim.schedule(owned.emplace_back(std::move(fn), prio), when);
        }

        void
        scheduleIn(unsigned, Cycles delta, EventPriority prio,
                   std::function<void()> fn)
        {
            sim.scheduleIn(owned.emplace_back(std::move(fn), prio), delta);
        }

        void
        sendMsg(unsigned, unsigned dst, Tick arrival, EventPriority prio,
                unsigned index)
        {
            auto deliver = [this, dst, prio, index] {
                record(dst, static_cast<int>(prio), index);
            };
            sim.schedule(owned.emplace_back(deliver, prio), arrival);
        }
    };

    SerialEnv env(mc);
    std::function<void(unsigned, unsigned, unsigned)> step;
    driveMessageCorpus(mc, env, step);
    env.sim.run();
    return std::move(env.fired);
}

/** Flatten per-partition traces and sort into the canonical total
 *  order (when, priority, partition, index) for engine-independent
 *  multiset comparison. */
inline std::vector<Firing>
canonical(const std::vector<std::vector<Firing>> &traces)
{
    std::vector<Firing> all;
    for (const auto &t : traces)
        all.insert(all.end(), t.begin(), t.end());
    std::sort(all.begin(), all.end(),
              [](const Firing &a, const Firing &b) {
                  return a.key() < b.key();
              });
    return all;
}

} // namespace cedar::test::fuzz

#endif // CEDARSIM_TESTS_FUZZ_SCHEDULE_HH
