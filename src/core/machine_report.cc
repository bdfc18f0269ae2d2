/**
 * @file
 * Statistics snapshot and report rendering.
 */

#include "machine_report.hh"

#include <algorithm>
#include <sstream>

#include "core/report.hh"

namespace cedar::core {

MachineSnapshot
snapshot(machine::CedarMachine &machine)
{
    // Everything here reads the machine's StatRegistry; the component
    // tree is never walked directly.
    const StatRegistry &reg = machine.stats();
    MachineSnapshot snap;
    snap.elapsed = machine.sim().curTick();

    snap.sim_events = static_cast<std::uint64_t>(
        reg.scalarValue("cedar.sim.events"));

    snap.gm_reads = reg.counterValue("cedar.gm.reads");
    snap.gm_writes = reg.counterValue("cedar.gm.writes");
    snap.gm_syncs = reg.counterValue("cedar.gm.syncs");
    const SampleStat &lat = reg.sampleStat("cedar.gm.read_latency");
    snap.gm_read_latency_mean = lat.mean();
    snap.gm_read_latency_max = lat.max();
    snap.gm_min_read_latency = machine.gm().minReadLatency();

    snap.module_conflicts = reg.sumCounters("cedar.gm.mod*.conflicts");
    snap.module_wait_mean = reg.weightedMean("cedar.gm.mod*.wait");

    snap.fwd_delivered_words = static_cast<std::uint64_t>(
        reg.scalarValue("cedar.gm.fwd.delivered_words"));
    snap.rev_delivered_words = static_cast<std::uint64_t>(
        reg.scalarValue("cedar.gm.rev.delivered_words"));
    snap.fwd_queueing_mean =
        reg.sampleStat("cedar.gm.fwd.queueing").mean();
    snap.rev_queueing_mean =
        reg.sampleStat("cedar.gm.rev.queueing").mean();
    if (snap.elapsed > 0) {
        double peak_words =
            static_cast<double>(machine.gm().numModules()) /
            machine.config().gm.module_access_cycles *
            static_cast<double>(snap.elapsed);
        snap.gm_bandwidth_utilization =
            static_cast<double>(snap.rev_delivered_words) / peak_words;
    }

    snap.cache_hits = reg.sumCounters("cedar.cluster*.cache.hits");
    snap.cache_misses = reg.sumCounters("cedar.cluster*.cache.misses");
    snap.cache_writebacks =
        reg.sumCounters("cedar.cluster*.cache.writebacks");
    snap.ccb_starts = reg.sumCounters("cedar.cluster*.ccb.starts");
    snap.ccb_dispatches =
        reg.sumCounters("cedar.cluster*.ccb.dispatches");

    snap.total_flops = reg.sumScalars("cedar.cluster*.ce*.flops");
    snap.total_ops = reg.sumCounters("cedar.cluster*.ce*.ops");
    snap.pfu_requests =
        reg.sumCounters("cedar.cluster*.ce*.pfu.requests");
    snap.pfu_latency_mean =
        reg.weightedMean("cedar.cluster*.ce*.pfu.latency");
    snap.pfu_min_latency = snap.gm_min_read_latency +
                           machine.config().cluster.pfu.buffer_fill;

    if (const HostProfiler *prof = machine.sim().profiler())
        snap.profile = prof->table();
    return snap;
}

std::string
renderReport(const MachineSnapshot &snap)
{
    std::ostringstream os;
    os << "=== machine report ===\n";
    os << "elapsed: " << snap.elapsed << " cycles ("
       << fmt(ticksToMicros(snap.elapsed), 1) << " us)\n";
    os << "work: " << fmt(snap.total_flops, 0) << " flops in "
       << snap.total_ops << " ops -> " << fmt(snap.mflops(), 1)
       << " MFLOPS\n";

    os << "\nglobal memory:\n";
    os << "  reads " << snap.gm_reads << ", writes " << snap.gm_writes
       << ", syncs " << snap.gm_syncs << "\n";
    os << "  read latency mean " << fmt(snap.gm_read_latency_mean, 1)
       << " / max " << fmt(snap.gm_read_latency_max, 0)
       << " cycles (uncontended minimum " << snap.gm_min_read_latency
       << ")\n";
    os << "  module conflicts " << snap.module_conflicts
       << ", mean bank wait " << fmt(snap.module_wait_mean, 2)
       << " cycles\n";

    os << "\nnetworks:\n";
    os << "  forward delivered " << snap.fwd_delivered_words
       << " words, mean queueing " << fmt(snap.fwd_queueing_mean, 2)
       << " cycles\n";
    os << "  reverse delivered " << snap.rev_delivered_words
       << " words, mean queueing " << fmt(snap.rev_queueing_mean, 2)
       << " cycles\n";
    os << "  global bandwidth utilization "
       << fmt(100.0 * snap.gm_bandwidth_utilization, 1)
       << "% of the 768 MB/s budget\n";

    os << "\nclusters:\n";
    os << "  cache hits " << snap.cache_hits << " / misses "
       << snap.cache_misses << " (hit rate "
       << fmt(100.0 * snap.cacheHitRate(), 1) << "%), writebacks "
       << snap.cache_writebacks << "\n";
    os << "  concurrency bus: " << snap.ccb_starts << " gang starts, "
       << snap.ccb_dispatches << " dispatches\n";

    os << "\nprefetch units:\n";
    os << "  requests " << snap.pfu_requests << ", mean latency "
       << fmt(snap.pfu_latency_mean, 1)
       << " cycles (hardware minimum " << snap.pfu_min_latency << ")\n";

    os << "\nengine:\n";
    os << "  " << snap.sim_events << " events\n";

    if (!snap.profile.empty()) {
        double total = 0.0;
        for (const auto &k : snap.profile)
            total += k.seconds;
        os << "\nhost profile (top event kinds by exclusive host time):\n";
        std::size_t top = std::min<std::size_t>(snap.profile.size(), 10);
        for (std::size_t i = 0; i < top; ++i) {
            const auto &k = snap.profile[i];
            os << "  " << fmt(total > 0.0 ? 100.0 * k.seconds / total : 0.0, 1)
               << "%  " << fmt(k.seconds * 1e3, 2) << " ms  "
               << k.dispatches << " dispatches  " << k.kind << "\n";
        }
        if (snap.profile.size() > top) {
            os << "  ... " << (snap.profile.size() - top)
               << " more kinds\n";
        }
    }
    return os.str();
}

} // namespace cedar::core
