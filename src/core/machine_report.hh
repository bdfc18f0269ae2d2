/**
 * @file
 * Machine-wide statistics reporting: reads a CedarMachine's stat
 * registry after a run and renders what the Cedar performance
 * hardware would have shown — network utilization and queueing, memory
 * module load and conflicts, cache behaviour, prefetch latencies, and
 * per-CE work, aggregated over hierarchical component names.
 */

#ifndef CEDARSIM_CORE_MACHINE_REPORT_HH
#define CEDARSIM_CORE_MACHINE_REPORT_HH

#include <string>
#include <vector>

#include "machine/cedar.hh"
#include "sim/hostprof.hh"

namespace cedar::core {

/** Aggregated machine statistics snapshot. */
struct MachineSnapshot
{
    Tick elapsed = 0;

    // Engine.
    std::uint64_t sim_events = 0;

    // Global memory system.
    std::uint64_t gm_reads = 0;
    std::uint64_t gm_writes = 0;
    std::uint64_t gm_syncs = 0;
    double gm_read_latency_mean = 0.0;
    double gm_read_latency_max = 0.0;
    /** Uncontended read latency of this machine (minReadLatency()). */
    Cycles gm_min_read_latency = 0;
    std::uint64_t module_conflicts = 0;
    double module_wait_mean = 0.0;

    // Networks.
    std::uint64_t fwd_delivered_words = 0;
    std::uint64_t rev_delivered_words = 0;
    double fwd_queueing_mean = 0.0;
    double rev_queueing_mean = 0.0;
    /** This machine's global bandwidth budget: modules / module access
     *  cycles (16 words/cycle on the standard machine). */
    double gm_peak_words_per_cycle = 0.0;
    /** Reverse-network words delivered per cycle over the window, as a
     *  fraction of gm_peak_words_per_cycle. */
    double gm_bandwidth_utilization = 0.0;

    // Clusters (summed).
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_writebacks = 0;
    std::uint64_t ccb_starts = 0;
    std::uint64_t ccb_dispatches = 0;

    // CEs (summed).
    double total_flops = 0.0;
    std::uint64_t total_ops = 0;
    std::uint64_t pfu_requests = 0;
    double pfu_latency_mean = 0.0;
    /** Uncontended read plus the prefetch-buffer fill. */
    Cycles pfu_min_latency = 0;

    /** Per-event-kind host time from this machine's engine; empty
     *  unless profiling was armed (see Simulation::setProfiling). */
    std::vector<HostProfiler::KindStats> profile;

    double
    mflops() const
    {
        return cedar::mflops(total_flops, elapsed);
    }

    double
    cacheHitRate() const
    {
        std::uint64_t total = cache_hits + cache_misses;
        return total ? double(cache_hits) / double(total) : 0.0;
    }
};

/** Collect a snapshot from the machine's current statistics. */
MachineSnapshot snapshot(machine::CedarMachine &machine);

/** Render the snapshot as a human-readable multi-section report. */
std::string renderReport(const MachineSnapshot &snap);

} // namespace cedar::core

#endif // CEDARSIM_CORE_MACHINE_REPORT_HH
