/**
 * @file
 * Whole-machine configuration.
 *
 * Every published Cedar parameter lives here as data, so ablation
 * benches can vary one number at a time and tests can assert the
 * standard machine matches the paper.
 */

#ifndef CEDARSIM_MACHINE_CONFIG_HH
#define CEDARSIM_MACHINE_CONFIG_HH

#include <climits>
#include <cstdint>
#include <sstream>
#include <string>

#include "cluster/cluster.hh"
#include "mem/globalmem.hh"
#include "sim/error.hh"
#include "sim/watchdog.hh"

namespace cedar::machine {

/** Configuration of a Cedar machine. */
struct CedarConfig
{
    /** Clusters in the system (Cedar: 4). */
    unsigned num_clusters = 4;
    /** Per-cluster structure (Alliant FX/8: 8 CEs). */
    cluster::ClusterParams cluster{};
    /** Global memory + network structure. */
    mem::GlobalMemoryParams gm{};
    /** Liveness watchdog (deadlock/livelock detection). */
    WatchdogParams watchdog{};

    /** Total CEs. */
    unsigned
    numCes() const
    {
        return num_clusters * cluster.num_ces;
    }

    /**
     * Reject structurally impossible machines before any component is
     * built, with a SimError of kind `config` naming the offending
     * parameter. CedarMachine calls this at construction.
     */
    void
    validate() const
    {
        auto reject = [](const std::string &msg) {
            throw SimError(SimError::Kind::config, "cedar.config",
                           currentErrorTick(), msg);
        };
        if (num_clusters == 0)
            reject("machine needs at least one cluster");
        if (cluster.num_ces == 0)
            reject("cluster needs at least one CE");
        if (std::uint64_t(num_clusters) * cluster.num_ces > UINT_MAX) {
            reject(std::to_string(num_clusters) + " clusters of " +
                   std::to_string(cluster.num_ces) +
                   " CEs overflow the CE count");
        }
        if (gm.num_modules == 0)
            reject("global memory needs at least one module");
        if ((gm.num_modules & (gm.num_modules - 1)) != 0) {
            reject("module count must be a power of two for "
                   "double-word interleaving, got " +
                   std::to_string(gm.num_modules));
        }
        auto exact_power = [](unsigned ports, unsigned base) {
            while (ports > 1 && ports % base == 0)
                ports /= base;
            return ports == 1;
        };
        if (gm.topology == "omega") {
            std::uint64_t ports = 1;
            for (unsigned r : gm.stage_radices) {
                if (r < 2) {
                    reject("network stage radix must be at least 2, "
                           "got " +
                           std::to_string(r));
                }
                ports *= r;
                if (ports > UINT_MAX)
                    reject("stage radices overflow the port count");
            }
            if (ports != gm.num_ports) {
                reject("stage radices cover " + std::to_string(ports) +
                       " ports but num_ports is " +
                       std::to_string(gm.num_ports));
            }
        } else if (gm.topology == "fattree") {
            if (gm.fat_tree_arity == 1) {
                reject("fat tree arity must be 0 (auto) or at "
                       "least 2");
            }
            if (gm.fat_tree_arity == 0) {
                if (!exact_power(gm.num_ports, 8) &&
                    !exact_power(gm.num_ports, 4) &&
                    !exact_power(gm.num_ports, 2)) {
                    reject("fat tree auto-arity: " +
                           std::to_string(gm.num_ports) +
                           " ports is not a power of 8, 4, or 2");
                }
            } else if (!exact_power(gm.num_ports, gm.fat_tree_arity)) {
                reject(std::to_string(gm.num_ports) +
                       " ports is not an exact power of fat tree "
                       "arity " +
                       std::to_string(gm.fat_tree_arity));
            }
        } else if (gm.topology != "crossbar") {
            reject("unknown topology '" + gm.topology +
                   "' (expected omega, fattree, or crossbar)");
        }
        if (gm.num_ports != numCes()) {
            reject("global network has " + std::to_string(gm.num_ports) +
                   " ports but the machine has " +
                   std::to_string(numCes()) + " CEs");
        }
        if (gm.num_modules > gm.num_ports) {
            reject("module count " + std::to_string(gm.num_modules) +
                   " must be in [1, num_ports=" +
                   std::to_string(gm.num_ports) + "]");
        }
        if (cluster.pfu.buffer_words == 0)
            reject("prefetch buffer must hold at least one word");
    }

    /** The machine as built at CSRD: 4 x Alliant FX/8, 32 CEs. */
    static CedarConfig
    standard()
    {
        return CedarConfig{};
    }

    /**
     * A machine scaled past the paper: @p clusters Alliant FX/8
     * clusters with ports = CEs and one memory module per port
     * (rounded down to a power of two for the interleave), connected
     * by the requested interconnect family. Omega radices decompose
     * into radix-8 stages with at most one smaller remainder stage,
     * matching how the paper's 32-port network was built from 8x8
     * crossbars feeding 4-way switches.
     */
    static CedarConfig
    scaled(unsigned clusters, const std::string &topology = "omega",
           bool combined_net = false)
    {
        CedarConfig cfg;
        cfg.num_clusters = clusters;
        cfg.gm.num_ports = clusters * cfg.cluster.num_ces;
        unsigned modules = 1;
        while (modules <= cfg.gm.num_ports / 2)
            modules *= 2;
        cfg.gm.num_modules = modules;
        cfg.gm.topology = topology;
        cfg.gm.combined_net = combined_net;
        cfg.gm.stage_radices.clear();
        unsigned p = cfg.gm.num_ports;
        while (p > 8 && p % 8 == 0) {
            cfg.gm.stage_radices.push_back(8);
            p /= 8;
        }
        if (p > 1)
            cfg.gm.stage_radices.push_back(p);
        return cfg;
    }

    /**
     * Canonical string of every behaviour-affecting parameter. A
     * checkpoint stores it and restore refuses a machine whose
     * fingerprint differs — restoring into a different geometry or
     * timing model cannot reproduce the run. The watchdog knobs are
     * deliberately excluded: they never alter simulated behaviour.
     */
    std::string
    fingerprint() const
    {
        std::ostringstream os;
        os << "clusters=" << num_clusters << ";ces=" << cluster.num_ces
           << ";ce=" << cluster.ce.vector_startup << ","
           << cluster.ce.vector_mem_overhead << ","
           << cluster.ce.issue_cycles << "," << cluster.ce.drain_cycles
           << "," << cluster.ce.max_outstanding << ","
           << cluster.ce.ops_per_event << ";pfu="
           << cluster.pfu.buffer_words << ","
           << cluster.pfu.issue_interval << ","
           << cluster.pfu.max_outstanding << ","
           << cluster.pfu.buffer_fill << ","
           << cluster.pfu.arm_fire_cycles << ","
           << cluster.pfu.page_cross_penalty << ","
           << cluster.pfu.drain_cycles << ";cache="
           << cluster.cache.capacity_kb << "," << cluster.cache.line_bytes
           << "," << cluster.cache.ways << ","
           << cluster.cache.words_per_cycle << ","
           << cluster.cache.misses_per_ce << ","
           << cluster.cache.contention_penalty_pct << ";cmem="
           << cluster.cmem.words_per_cycle << "," << cluster.cmem.latency
           << "," << cluster.cmem.capacity_mb << ","
           << cluster.cmem.contention_penalty_pct << ";ccb="
           << cluster.ccb.concurrent_start_cycles << ","
           << cluster.ccb.dispatch_cycles << ","
           << cluster.ccb.join_cycles << ";gm=" << gm.num_ports << ","
           << gm.hop_latency << "," << gm.word_occupancy << ","
           << gm.num_modules << "," << gm.module_access_cycles << ","
           << gm.sync_extra_cycles << "," << gm.module_conflict_extra
           << "," << gm.read_request_words << ","
           << gm.read_response_words << "," << gm.write_request_words
           << "," << gm.port_queue_words << ";radices=";
        for (std::size_t i = 0; i < gm.stage_radices.size(); ++i)
            os << (i ? "." : "") << gm.stage_radices[i];
        // Topology knobs join at the end so standard omega machines
        // keep the fingerprint older checkpoints were stamped with.
        if (gm.topology != "omega" || gm.combined_net ||
            gm.fat_tree_arity != 0 || gm.crossbar_arb_cycles != 0) {
            os << ";topo=" << gm.topology << "," << gm.fat_tree_arity
               << "," << gm.crossbar_arb_cycles << ","
               << (gm.combined_net ? 1 : 0);
        }
        return os.str();
    }

    /** Peak MFLOPS (chained vector multiply-add on every CE). */
    double
    peakMflops() const
    {
        return numCes() * 2.0 * ce_clock_mhz;
    }

    /**
     * Effective peak MFLOPS accounting for unavoidable vector startup
     * on 32-word strips (the paper's 274 of 376 MFLOPS).
     */
    double
    effectivePeakMflops() const
    {
        double strip = 32.0;
        double eff =
            strip / (strip + static_cast<double>(cluster.ce.vector_startup));
        return peakMflops() * eff;
    }
};

} // namespace cedar::machine

#endif // CEDARSIM_MACHINE_CONFIG_HH
