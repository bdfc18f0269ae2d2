/**
 * @file
 * The assembled Cedar machine: four Alliant FX/8 clusters connected by
 * two unidirectional omega networks to the globally shared memory.
 */

#ifndef CEDARSIM_MACHINE_CEDAR_HH
#define CEDARSIM_MACHINE_CEDAR_HH

#include <memory>
#include <vector>

#include "machine/config.hh"
#include "machine/perfmon.hh"
#include "sim/engine.hh"
#include "sim/telemetry.hh"
#include "sim/fault.hh"
#include "sim/named.hh"
#include "sim/probes.hh"
#include "sim/statreg.hh"
#include "sim/watchdog.hh"

namespace cedar::machine {

/**
 * Software-visible runtime counters (loop starts and iteration
 * dispatches). They live on the machine rather than on LoopRunner
 * because several runners may drive one machine over its lifetime,
 * while the registry entry must stay stable.
 */
struct RuntimeStats
{
    Counter cdoall_starts;
    Counter xdoall_starts;
    Counter sdoall_starts;
    Counter sdoall_dispatches;
    Counter iterations;
    /** Synchronization instructions reissued after a processor
     *  timeout (lock acquires additionally wait out a backoff). */
    Counter sync_retries;
    /** Lock acquisitions that found the lock held and backed off. */
    Counter lock_retries;
    /** CEs that dropped out of a self-scheduled loop mid-run. */
    Counter dropped_ces;
};

/** A complete Cedar system plus its private simulation engine. */
class CedarMachine : public Named
{
  public:
    explicit CedarMachine(const CedarConfig &config = CedarConfig::standard());
    /** Out of line: members hold types incomplete in this header. */
    ~CedarMachine();

    Simulation &sim() { return _sim; }
    mem::GlobalMemory &gm() { return *_gm; }
    const CedarConfig &config() const { return _config; }

    unsigned numClusters() const { return _config.num_clusters; }
    unsigned numCes() const { return _config.numCes(); }

    cluster::Cluster &clusterAt(unsigned i) { return *_clusters.at(i); }

    /** CE by machine-wide index (cluster-major order). */
    cluster::ComputationalElement &
    ceAt(unsigned global_index)
    {
        unsigned per = _config.cluster.num_ces;
        return _clusters.at(global_index / per)->ce(global_index % per);
    }

    /**
     * Allocate @p words of globally shared memory.
     * @param align word alignment (default: one module stripe, so
     *              separately allocated arrays start on module 0)
     * @return global word address
     */
    Addr allocGlobal(std::uint64_t words, unsigned align = 32);

    /**
     * Allocate global memory with a rotating module-phase offset so
     * separately allocated arrays do not all begin at module 0 (real
     * programs' arrays land at uncorrelated interleave phases; aligned
     * bases would make gang-started CEs hammer the same module in
     * lockstep).
     */
    Addr allocGlobalStaggered(std::uint64_t words);

    /** Allocate words of cluster-space memory (per-cluster private). */
    Addr allocCluster(std::uint64_t words, unsigned align = 4);

    /** Total flops retired by every CE. */
    double totalFlops() const;

    /** The machine-wide stat registry (populated at construction). */
    StatRegistry &stats() { return _stats; }
    const StatRegistry &stats() const { return _stats; }

    /** The performance-monitoring station. */
    PerfMonitor &monitor() { return _monitor; }
    const PerfMonitor &monitor() const { return _monitor; }

    /** The liveness watchdog (always attached to the engine). */
    Watchdog &watchdog() { return _watchdog; }

    /**
     * Arm fault injection for the rest of this machine's life: the
     * networks, memory modules, and sync processors start rolling
     * fault decisions from @p spec's seed, and spec.failed_module (if
     * any) is remapped to the spare immediately. May be called once.
     */
    void injectFaults(const FaultSpec &spec);

    /** The fault injector, or nullptr when no faults were injected. */
    FaultInjector *faults() { return _faults.get(); }

    /**
     * Diagnostic bundle for error reports: machine shape, runtime
     * counters, injected-fault totals, and the watchdog's in-flight
     * wait listing.
     */
    std::string diagnosticBundle() const;

    RuntimeStats &runtimeStats() { return _runtime; }

    /**
     * Attach the monitor to every component and arm the tracer.
     * Until this is called the hot paths pay only a null check.
     */
    void enableMonitoring();

    /** Stop the tracer and detach the monitor from every component. */
    void disableMonitoring();

    bool monitoring() const { return _monitoring; }

    /** Post a machine-level (software) event if monitoring is on. */
    void
    postEvent(Tick when, Signal signal, std::int64_t value = 0)
    {
        if (_monitoring)
            _monitor.record(when, signal, value);
    }

    /**
     * Arm interval telemetry: every @p interval ticks the sampler
     * snapshots the machine registry and streams a JSONL record into
     * @p sink (which must outlive this machine). The sampler starts
     * immediately and closes itself out when the run drains. Replaces
     * any previously armed sampler.
     * @return the armed sampler (machine-owned)
     */
    TelemetrySampler &enableTelemetry(Tick interval, TelemetrySink &sink);

    /** The armed telemetry sampler, or nullptr. */
    TelemetrySampler *telemetry() { return _telemetry.get(); }

    /**
     * Serialize the whole machine into a snapshot (see
     * sim/checkpoint.hh for the format). Legal only at a quiescent
     * point: the event queue has drained (between run() phases), no CE
     * holds a stream, and monitoring is off. Raises a `checkpoint`
     * SimError otherwise.
     */
    std::string saveCheckpoint() const;

    /**
     * Restore a snapshot taken by saveCheckpoint() from a machine of
     * the identical configuration (fingerprint-checked). Fault
     * injection is re-armed automatically when the snapshot carries
     * it. If telemetry was armed at save, arm a sampler with the same
     * parameters before restoring, then call telemetry()->resume()
     * after. The restored machine continues bit-identically to the
     * uninterrupted run.
     */
    void restoreCheckpoint(const std::string &snapshot);

  private:
    void registerStats();

    CedarConfig _config;
    Simulation _sim;
    std::unique_ptr<mem::GlobalMemory> _gm;
    std::vector<std::unique_ptr<cluster::Cluster>> _clusters;
    StatRegistry _stats;
    PerfMonitor _monitor;
    Watchdog _watchdog;
    std::unique_ptr<FaultInjector> _faults;
    RuntimeStats _runtime;
    bool _monitoring = false;
    Addr _next_global = 0;
    Addr _next_cluster_addr = 0;
    /** Declared last: the sampler's destructor emits a final record,
     *  so it must die before the registry and engine it reads. */
    std::unique_ptr<TelemetrySampler> _telemetry;
};

} // namespace cedar::machine

#endif // CEDARSIM_MACHINE_CEDAR_HH
