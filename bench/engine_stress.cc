/**
 * @file
 * Host-side stress test of the event engine. Simulating billions of
 * machine cycles is only practical if the engine itself is fast, so
 * this bench measures raw events per host second for component-owned
 * member events rescheduled intrusively (the CE advance path, no
 * allocation per event).
 *
 * The workload lives in bench/stress_core.hh, shared with the
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

    out.metric("member_events_per_sec", member.rate());
    out.emit();
    return 0;
}
