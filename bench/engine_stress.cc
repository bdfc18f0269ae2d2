/**
 * @file
 * Host-side stress test of the event engine. Simulating billions of
 * machine cycles is only practical if the engine itself is fast, so
 * this bench measures raw events per host second for component-owned
 * member events rescheduled intrusively (the CE advance path, no
 * allocation per event), then times the parallel engine on a
 * Cedar-shaped partition graph at a ladder of thread counts.
 *
 * The workloads live in bench/stress_core.hh, shared with the
 * perf-trajectory runner so both binaries measure identical code.
 */

#include <cstdio>

#include "core/cedar.hh"
#include "stress_core.hh"

using namespace cedar;
using namespace cedar::bench::stress;

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    core::BenchOutput out("engine_stress", argc, argv);

    std::printf("Engine stress: %u actors, %llu-event budget\n\n",
                n_actors, static_cast<unsigned long long>(default_events));

    StressResult member = stress();
    core::TableWriter table({"style", "events", "host s", "M events/s"});
    table.row({"member events", std::to_string(member.events),
               core::fmt(member.seconds, 3),
               core::fmt(member.rate() / 1e6, 2)});
    table.print();

    // Parallel engine: the Cedar-shaped partition workload under the
    // conservative window protocol at a ladder of thread counts. The
    // checksum equality is the determinism contract in action; the
    // speedup column is bounded by the host's core count.
    std::printf("\nParallel engine: %u cluster partitions + complex, "
                "lookahead %llu ticks\n\n",
                pdes_clusters,
                static_cast<unsigned long long>(pdes_channel_latency));
    PdesLadder ladder = runPdesLadder();
    core::TableWriter ptable(
        {"threads", "events", "host s", "vs 1 thread", "checksum ok"});
    for (std::size_t i = 0; i < ladder.runs.size(); ++i) {
        const PdesResult &r = ladder.runs[i];
        ptable.row({std::to_string(pdes_thread_ladder[i]),
                    std::to_string(r.events), core::fmt(r.seconds, 3),
                    core::fmt(ladder.runs[0].seconds / r.seconds, 2) + "x",
                    "yes"});
    }
    ptable.print();

    out.metric("member_events_per_sec", member.rate());
    out.metric("pdes_serial_seconds", ladder.runs[0].seconds);
    out.metric("pdes_speedup_best", ladder.bestSpeedup());
    out.emit();
    return 0;
}
