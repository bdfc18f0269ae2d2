/**
 * @file
 * The Cedar global memory system: interleaved memory modules reached
 * through a forward interconnect, with responses returning through an
 * independent reverse interconnect (or, in the combined variant, back
 * through the same fabric). Cedar as built used two omega networks;
 * the scaled machines select any Topology family. This component owns
 * the fabrics and modules and provides the timed read/write/sync
 * interface the processors (and prefetch units) use.
 */

#ifndef CEDARSIM_MEM_GLOBALMEM_HH
#define CEDARSIM_MEM_GLOBALMEM_HH

#include <memory>
#include <vector>

#include "mem/address.hh"
#include "mem/module.hh"
#include "mem/syncops.hh"
#include "net/topology.hh"
#include "sim/fault.hh"
#include "sim/named.hh"
#include "sim/stats.hh"

namespace cedar::mem {

/** Construction parameters for the global memory system. */
struct GlobalMemoryParams
{
    /** Processor-side ports (one per CE on Cedar: 32). */
    unsigned num_ports = 32;
    /** Per-stage switch radices; product must equal num_ports. */
    std::vector<unsigned> stage_radices{8, 4};
    /** Cycles for a packet head to cross one network stage. */
    Cycles hop_latency = 1;
    /** Cycles one word occupies a network port. */
    Cycles word_occupancy = 1;
    /** Memory modules (paper: double-word interleaved). */
    unsigned num_modules = 32;
    /** Bank busy time per access. */
    Cycles module_access_cycles = 2;
    /** Extra busy time for a synchronization instruction. */
    Cycles sync_extra_cycles = 2;
    /** Extra bank busy time when a request finds the bank occupied
     *  (arbitration/recirculation loss; calibrated against Table 1). */
    Cycles module_conflict_extra = 2;
    /** Words in a read-request packet (routing word incl. address). */
    unsigned read_request_words = 1;
    /** Words in a read-response packet. */
    unsigned read_response_words = 1;
    /** Words in a write packet (routing word + data). */
    unsigned write_request_words = 2;
    /** Per-port network queue capacity in words (Cedar's switches
     *  buffer two words; 0 = unbounded). */
    unsigned port_queue_words = 2;
    /** Interconnect family: "omega", "fattree", or "crossbar". For
     *  omega the stage radices define the shape; the other families
     *  take their shape from num_ports. */
    std::string topology = "omega";
    /** Fat tree switch arity (0 = largest of 8/4/2 that fits). */
    unsigned fat_tree_arity = 0;
    /** Crossbar: fixed arbitration cycles paid per packet. */
    Cycles crossbar_arb_cycles = 0;
    /** Route responses back through the forward fabric (one combined
     *  network carrying both directions) instead of a dedicated
     *  reverse network. */
    bool combined_net = false;
};

/** Timed outcome of a global memory operation. */
struct GmResult
{
    /** Tick the response head reaches the requesting port. */
    Tick data_at_port = 0;
    /** Total network queueing suffered (forward + reverse). */
    Cycles queueing = 0;
    /** Functional result for sync operations. */
    SyncResult sync{0, false};
};

/** The globally shared memory plus its two networks. */
class GlobalMemory : public Named
{
  public:
    GlobalMemory(const std::string &name, const GlobalMemoryParams &params);

    /**
     * Timed read of one word.
     * @param port  requesting processor port
     * @param addr  global word address
     * @param issue tick the request enters the forward network
     */
    GmResult read(unsigned port, Addr addr, Tick issue);

    /**
     * Timed write of one word. Writes are posted: the CE never stalls on
     * them, but the packet still occupies network and bank resources.
     * @return tick the write completes at the module
     */
    Tick write(unsigned port, Addr addr, Tick issue);

    /** Timed synchronization instruction (round trip + functional op). */
    GmResult sync(unsigned port, Addr addr, const SyncOp &op, Tick issue);

    /** Initialize a functional cell (e.g. a loop-iteration counter). */
    void pokeCell(Addr addr, std::int32_t value);

    /** Read a functional cell without timing. */
    std::int32_t peekCell(Addr addr) const;

    /** Uncontended round-trip latency for a read (network + module). */
    Cycles minReadLatency() const;

    /**
     * Take memory module @p m out of service: its functional contents
     * are ECC-rebuilt onto the always-present spare module, and all
     * subsequent traffic for @p m is served by the spare (degraded
     * mode, not an error). Only one module may fail per run.
     */
    void failModule(unsigned m);

    /** Index of the failed module, or -1 when all are healthy. */
    int failedModule() const { return _failed_module; }

    unsigned numPorts() const { return _params.num_ports; }
    unsigned numModules() const { return _params.num_modules; }

    const net::Topology &forwardNet() const { return *_forward; }
    net::Topology &forwardNet() { return *_forward; }

    /** The response fabric: the forward network itself when combined. */
    const net::Topology &
    reverseNet() const
    {
        return _reverse ? *_reverse : *_forward;
    }

    net::Topology &reverseNet() { return _reverse ? *_reverse : *_forward; }

    /** True when requests and responses share one combined fabric. */
    bool combinedNet() const { return _reverse == nullptr; }

    const MemoryModule &module(unsigned m) const { return *_modules.at(m); }
    const MemoryModule &spareModule() const { return *_spare; }

    /** Total reads served (for bandwidth accounting). */
    std::uint64_t readCount() const { return _reads.value(); }
    std::uint64_t writeCount() const { return _writes.value(); }
    std::uint64_t syncCount() const { return _syncs.value(); }

    /** Distribution of read round-trip latencies seen at the ports. */
    const SampleStat &readLatencyStat() const { return _read_latency; }

    /**
     * Attach a monitor to the whole memory system: both networks and
     * every module begin posting events (nullptr detaches all).
     */
    void attachMonitor(MonitorSink *m);

    /**
     * Attach a fault injector to the whole memory system: both
     * networks start rolling for packet corruption and every module
     * (including the spare) for ECC events; sync requests may time
     * out. nullptr detaches all.
     */
    void attachFaults(FaultInjector *f);

    /** Register memory-system statistics (networks and modules too). */
    void registerStats(StatRegistry &reg);

    /**
     * Own counters plus both networks and every module (spare
     * included). Restores the failed-module index directly — the
     * spare's cells come from its own section, so no ECC rebuild is
     * re-run on restore.
     */
    void saveState(CheckpointWriter &w) const;
    void restoreState(const CheckpointReader &r);

  private:
    unsigned networkPortOfModule(unsigned module) const;

    /** Module that actually serves traffic for logical module @p m. */
    MemoryModule &
    serving(unsigned m)
    {
        return static_cast<int>(m) == _failed_module ? *_spare
                                                     : *_modules[m];
    }

    const MemoryModule &
    serving(unsigned m) const
    {
        return static_cast<int>(m) == _failed_module ? *_spare
                                                     : *_modules[m];
    }

    GlobalMemoryParams _params;
    std::unique_ptr<net::Topology> _forward;
    /** Null when combined_net: responses ride the forward fabric. */
    std::unique_ptr<net::Topology> _reverse;
    std::vector<std::unique_ptr<MemoryModule>> _modules;
    /** Hot spare that takes over a failed module's address slice. */
    std::unique_ptr<MemoryModule> _spare;
    int _failed_module = -1;
    FaultInjector *_faults = nullptr;
    Counter _reads;
    Counter _writes;
    Counter _syncs;
    SampleStat _read_latency;
};

} // namespace cedar::mem

#endif // CEDARSIM_MEM_GLOBALMEM_HH
