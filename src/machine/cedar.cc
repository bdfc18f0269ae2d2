/**
 * @file
 * Machine assembly and global memory allocation.
 */

#include "cedar.hh"

#include <sstream>

#include "mem/address.hh"
#include "sim/checkpoint.hh"

namespace cedar::machine {

CedarMachine::CedarMachine(const CedarConfig &config)
    : Named("cedar"), _config(config), _monitor(child("monitor")),
      _watchdog(child("watchdog"), config.watchdog)
{
    _config.validate();
    _gm = std::make_unique<mem::GlobalMemory>(child("gm"), _config.gm);
    _clusters.reserve(_config.num_clusters);
    for (unsigned c = 0; c < _config.num_clusters; ++c) {
        _clusters.push_back(std::make_unique<cluster::Cluster>(
            child("cluster" + std::to_string(c)), _sim, *_gm,
            c * _config.cluster.num_ces, _config.cluster));
    }
    _watchdog.setDiagnostics([this] { return diagnosticBundle(); });
    _sim.attachWatchdog(&_watchdog);
    registerStats();
}

CedarMachine::~CedarMachine() = default;

void
CedarMachine::injectFaults(const FaultSpec &spec)
{
    sim_assert(!_faults, "fault injection is already armed");
    if (spec.failed_module >= 0 &&
        static_cast<unsigned>(spec.failed_module) >=
            _config.gm.num_modules) {
        throw SimError(SimError::Kind::config, name(), _sim.curTick(),
                       "failed_module " +
                           std::to_string(spec.failed_module) +
                           " out of range [0, " +
                           std::to_string(_config.gm.num_modules) + ")");
    }
    _faults = std::make_unique<FaultInjector>(child("faults"), spec);
    _gm->attachFaults(_faults.get());
    if (spec.failed_module >= 0)
        _gm->failModule(static_cast<unsigned>(spec.failed_module));
    _faults->registerStats(_stats);
}

std::string
CedarMachine::diagnosticBundle() const
{
    std::ostringstream os;
    os << "machine: " << _config.num_clusters << " clusters x "
       << _config.cluster.num_ces << " CEs, "
       << _config.gm.num_modules << " memory modules";
    if (_gm->failedModule() >= 0)
        os << " (module " << _gm->failedModule() << " on spare)";
    os << "\n";
    os << "tick: " << _sim.curTick() << ", events: "
       << _sim.eventsExecuted() << "\n";
    os << "runtime: iterations=" << _runtime.iterations.value()
       << " sync_retries=" << _runtime.sync_retries.value()
       << " lock_retries=" << _runtime.lock_retries.value()
       << " dropped_ces=" << _runtime.dropped_ces.value() << "\n";
    if (_faults) {
        os << "injected: net=" << _faults->netCorruptions()
           << " mem1=" << _faults->memSingleBits()
           << " mem2=" << _faults->memDoubleBits()
           << " sync=" << _faults->syncTimeouts()
           << " ce=" << _faults->ceDropouts() << "\n";
    }
    auto waits = _watchdog.waitDescriptions();
    os << "in-flight waits: " << waits.size();
    for (const auto &w : waits)
        os << "\n  - " << w;
    return os.str();
}

TelemetrySampler &
CedarMachine::enableTelemetry(Tick interval, TelemetrySink &sink)
{
    _telemetry = std::make_unique<TelemetrySampler>(name(), _sim, _stats,
                                                    interval, sink);
    _telemetry->start();
    return *_telemetry;
}

void
CedarMachine::registerStats()
{
    _gm->registerStats(_stats);
    for (auto &c : _clusters)
        c->registerStats(_stats);
    _monitor.registerStats(_stats);

    std::string rt = child("runtime");
    _stats.addCounter(rt + ".cdoall_starts", _runtime.cdoall_starts);
    _stats.addCounter(rt + ".xdoall_starts", _runtime.xdoall_starts);
    _stats.addCounter(rt + ".sdoall_starts", _runtime.sdoall_starts);
    _stats.addCounter(rt + ".sdoall_dispatches",
                      _runtime.sdoall_dispatches);
    _stats.addCounter(rt + ".iterations", _runtime.iterations);
    _stats.addCounter(rt + ".sync_retries", _runtime.sync_retries);
    _stats.addCounter(rt + ".lock_retries", _runtime.lock_retries);
    _stats.addCounter(rt + ".dropped_ces", _runtime.dropped_ces);
    _watchdog.registerStats(_stats);

    _stats.addScalar(child("sim.events"), [this] {
        return static_cast<double>(_sim.eventsExecuted());
    });
    _stats.addScalar(child("sim.ticks"), [this] {
        return static_cast<double>(_sim.curTick());
    });
}

void
CedarMachine::enableMonitoring()
{
    _gm->attachMonitor(&_monitor);
    for (auto &c : _clusters)
        c->attachMonitor(&_monitor);
    _monitor.start();
    _monitoring = true;
}

void
CedarMachine::disableMonitoring()
{
    _monitor.stop();
    _gm->attachMonitor(nullptr);
    for (auto &c : _clusters)
        c->attachMonitor(nullptr);
    _monitoring = false;
}

Addr
CedarMachine::allocGlobal(std::uint64_t words, unsigned align)
{
    sim_assert(align > 0, "alignment must be positive");
    _next_global = (_next_global + align - 1) / align * align;
    Addr base = mem::globalAddr(_next_global);
    _next_global += words;
    return base;
}

Addr
CedarMachine::allocGlobalStaggered(std::uint64_t words)
{
    Addr base = allocGlobal(words, 1);
    // Advance by a module-coprime pad so the next array starts at a
    // different interleave phase.
    _next_global += 13;
    return base;
}

Addr
CedarMachine::allocCluster(std::uint64_t words, unsigned align)
{
    sim_assert(align > 0, "alignment must be positive");
    _next_cluster_addr =
        (_next_cluster_addr + align - 1) / align * align;
    Addr base = _next_cluster_addr;
    _next_cluster_addr += words;
    sim_assert(!mem::isGlobal(base), "cluster space exhausted");
    return base;
}

double
CedarMachine::totalFlops() const
{
    double total = 0.0;
    for (const auto &c : _clusters)
        total += c->totalFlops();
    return total;
}

std::string
CedarMachine::saveCheckpoint() const
{
    if (_monitoring) {
        checkpointError(name(),
                        "monitoring is armed; monitor traces are not "
                        "serializable — disableMonitoring() first");
    }
    CheckpointWriter w(_sim.curTick());
    // The engine refuses a non-drained queue, so write it first: a
    // machine that is not quiescent fails before any component runs.
    _sim.saveState(w);

    auto &sec = w.section(child("machine"));
    sec.str("config", _config.fingerprint());
    sec.u64("next_global", _next_global);
    sec.u64("next_cluster_addr", _next_cluster_addr);
    sec.u64("faults_armed", _faults ? 1 : 0);
    sec.u64("telemetry_armed", _telemetry ? 1 : 0);
    sec.counter("cdoall_starts", _runtime.cdoall_starts);
    sec.counter("xdoall_starts", _runtime.xdoall_starts);
    sec.counter("sdoall_starts", _runtime.sdoall_starts);
    sec.counter("sdoall_dispatches", _runtime.sdoall_dispatches);
    sec.counter("iterations", _runtime.iterations);
    sec.counter("sync_retries", _runtime.sync_retries);
    sec.counter("lock_retries", _runtime.lock_retries);
    sec.counter("dropped_ces", _runtime.dropped_ces);

    _gm->saveState(w);
    for (const auto &c : _clusters)
        c->saveState(w);
    _watchdog.saveState(w);
    if (_faults)
        _faults->saveState(w);
    if (_telemetry)
        _telemetry->saveState(w);
    return w.finish();
}

void
CedarMachine::restoreCheckpoint(const std::string &snapshot)
{
    if (_monitoring) {
        checkpointError(name(),
                        "monitoring is armed; disableMonitoring() "
                        "before restoring");
    }
    CheckpointReader r(snapshot);

    const auto &sec = r.section(child("machine"));
    const std::string &fp = sec.str("config");
    if (fp != _config.fingerprint()) {
        checkpointError(name(),
                        "configuration mismatch: snapshot was taken on "
                        "'" + fp + "' but this machine is '" +
                            _config.fingerprint() + "'");
    }

    bool snap_faults = sec.u64("faults_armed") != 0;
    if (snap_faults && !_faults) {
        // Re-arm from the snapshot's own spec; lanes and counters are
        // then overwritten below, and the GM cell restore supersedes
        // the failModule() rebuild injectFaults() performs.
        injectFaults(FaultSpec::parse(
            r.section(child("faults")).str("spec")));
    } else if (!snap_faults && _faults) {
        checkpointError(name(),
                        "this machine has fault injection armed but "
                        "the snapshot was taken without faults");
    }

    bool snap_telemetry = sec.u64("telemetry_armed") != 0;
    if (snap_telemetry && !_telemetry) {
        checkpointError(name(),
                        "snapshot carries telemetry state; arm a "
                        "sampler with the same parameters "
                        "(enableTelemetry) before restoring");
    }
    if (!snap_telemetry && _telemetry) {
        checkpointError(name(),
                        "this machine has telemetry armed but the "
                        "snapshot was taken without it");
    }
    // The sampler deschedules its own pending event, emptying the
    // queue ahead of the engine restore; resume() re-arms it after.
    if (_telemetry && snap_telemetry)
        _telemetry->restoreState(r);

    _sim.restoreState(r);
    _gm->restoreState(r);
    for (auto &c : _clusters)
        c->restoreState(r);
    _watchdog.restoreState(r);
    if (_faults)
        _faults->restoreState(r);

    _next_global = sec.u64("next_global");
    _next_cluster_addr = sec.u64("next_cluster_addr");
    sec.counter("cdoall_starts", _runtime.cdoall_starts);
    sec.counter("xdoall_starts", _runtime.xdoall_starts);
    sec.counter("sdoall_starts", _runtime.sdoall_starts);
    sec.counter("sdoall_dispatches", _runtime.sdoall_dispatches);
    sec.counter("iterations", _runtime.iterations);
    sec.counter("sync_retries", _runtime.sync_retries);
    sec.counter("lock_retries", _runtime.lock_retries);
    sec.counter("dropped_ces", _runtime.dropped_ces);
}

} // namespace cedar::machine
