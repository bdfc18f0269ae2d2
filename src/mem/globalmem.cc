/**
 * @file
 * Global memory system implementation.
 */

#include "globalmem.hh"

namespace cedar::mem {

GlobalMemory::GlobalMemory(const std::string &name,
                           const GlobalMemoryParams &params)
    : Named(name), _params(params)
{
    if (_params.topology == "omega") {
        unsigned ports = 1;
        for (unsigned r : _params.stage_radices)
            ports *= r;
        if (ports != _params.num_ports) {
            fatal("stage radices cover ", ports,
                  " ports but num_ports is ", _params.num_ports);
        }
    }
    if (_params.num_modules == 0 ||
        _params.num_modules > _params.num_ports) {
        fatal("module count ", _params.num_modules,
              " must be in [1, num_ports=", _params.num_ports, "]");
    }
    net::TopologyParams net_params;
    net_params.kind = _params.topology;
    net_params.num_ports = _params.num_ports;
    net_params.stage_radices = _params.stage_radices;
    net_params.fat_tree_arity = _params.fat_tree_arity;
    net_params.crossbar_arb_cycles = _params.crossbar_arb_cycles;
    net_params.hop_latency = _params.hop_latency;
    net_params.word_occupancy = _params.word_occupancy;
    net_params.port_queue_words = _params.port_queue_words;
    if (_params.combined_net) {
        // One fabric carries both directions; _reverse stays null and
        // reverseNet() aliases the forward network.
        _forward = net::makeTopology(child("net"), net_params);
    } else {
        _forward = net::makeTopology(child("fwd"), net_params);
        _reverse = net::makeTopology(child("rev"), net_params);
    }
    _modules.reserve(_params.num_modules);
    for (unsigned m = 0; m < _params.num_modules; ++m) {
        _modules.push_back(std::make_unique<MemoryModule>(
            child("mod" + std::to_string(m)),
            _params.module_access_cycles, _params.sync_extra_cycles,
            _params.module_conflict_extra));
    }
    _spare = std::make_unique<MemoryModule>(
        child("spare"), _params.module_access_cycles,
        _params.sync_extra_cycles, _params.module_conflict_extra);
}

void
GlobalMemory::failModule(unsigned m)
{
    sim_assert(m < _params.num_modules, "failModule: module ", m,
               " out of range [0, ", _params.num_modules, ")");
    sim_assert(_failed_module < 0,
               "only one module failure is supported (module ",
               _failed_module, " already remapped to the spare)");
    // ECC rebuild: the spare takes over the failed module's address
    // slice with its functional contents reconstructed.
    for (const auto &[addr, value] : _modules[m]->cells())
        _spare->poke(addr, value);
    _failed_module = static_cast<int>(m);
    inform("memory module ", m, " failed; remapped to spare module");
}

unsigned
GlobalMemory::networkPortOfModule(unsigned module) const
{
    // Modules are spread evenly over the network output ports so that a
    // reduced-module configuration still exercises the whole fabric.
    return module * (_params.num_ports / _params.num_modules);
}

GmResult
GlobalMemory::read(unsigned port, Addr addr, Tick issue)
{
    sim_assert(port < _params.num_ports, "bad port ", port);
    sim_assert(isGlobal(addr), "read of non-global address ", addr);
    unsigned mod = moduleOf(addr, _params.num_modules);
    unsigned mod_port = networkPortOfModule(mod);

    auto fwd = _forward->traverse(port, mod_port,
                                  _params.read_request_words, issue);
    Tick served = serving(mod).access(fwd.tail_arrival);
    auto rev = reverseNet().traverse(mod_port, port,
                                     _params.read_response_words, served);
    _reads.inc();
    _read_latency.sample(static_cast<double>(rev.head_arrival - issue));
    return GmResult{rev.head_arrival, fwd.queueing + rev.queueing, {}};
}

Tick
GlobalMemory::write(unsigned port, Addr addr, Tick issue)
{
    sim_assert(port < _params.num_ports, "bad port ", port);
    sim_assert(isGlobal(addr), "write of non-global address ", addr);
    unsigned mod = moduleOf(addr, _params.num_modules);
    unsigned mod_port = networkPortOfModule(mod);

    auto fwd = _forward->traverse(port, mod_port,
                                  _params.write_request_words, issue);
    Tick served = serving(mod).access(fwd.tail_arrival);
    _writes.inc();
    return served;
}

GmResult
GlobalMemory::sync(unsigned port, Addr addr, const SyncOp &op, Tick issue)
{
    sim_assert(port < _params.num_ports, "bad port ", port);
    sim_assert(isGlobal(addr), "sync on non-global address ", addr);
    unsigned mod = moduleOf(addr, _params.num_modules);
    unsigned mod_port = networkPortOfModule(mod);

    // A sync request carries the operation and operand alongside the
    // address: two words forward, two back (old value + status).
    auto fwd = _forward->traverse(port, mod_port, 2, issue);
    SyncResult res;
    // A timed-out sync still occupies the bank and processor, but the
    // operation is not performed; the requester sees timed_out and
    // must reissue (the runtime lock path retries with backoff).
    bool perform = !(_faults && _faults->syncTimeout());
    Tick served = serving(mod).syncAccess(
        fwd.tail_arrival, globalOffset(addr), op, res, perform);
    auto rev = reverseNet().traverse(mod_port, port, 2, served);
    _syncs.inc();
    return GmResult{rev.head_arrival, fwd.queueing + rev.queueing, res};
}

void
GlobalMemory::pokeCell(Addr addr, std::int32_t value)
{
    sim_assert(isGlobal(addr), "pokeCell of non-global address ", addr);
    unsigned mod = moduleOf(addr, _params.num_modules);
    serving(mod).poke(globalOffset(addr), value);
}

std::int32_t
GlobalMemory::peekCell(Addr addr) const
{
    sim_assert(isGlobal(addr), "peekCell of non-global address ", addr);
    unsigned mod = moduleOf(addr, _params.num_modules);
    return serving(mod).peek(globalOffset(addr));
}

Cycles
GlobalMemory::minReadLatency() const
{
    return _forward->minLatency() +
           (_params.read_request_words - 1) * _params.word_occupancy +
           _params.module_access_cycles + reverseNet().minLatency();
}

void
GlobalMemory::attachMonitor(MonitorSink *m)
{
    _forward->attachMonitor(m);
    if (_reverse)
        _reverse->attachMonitor(m);
    for (auto &mod : _modules)
        mod->attachMonitor(m);
    _spare->attachMonitor(m);
}

void
GlobalMemory::attachFaults(FaultInjector *f)
{
    _faults = f;
    _forward->attachFaults(f);
    if (_reverse)
        _reverse->attachFaults(f);
    for (auto &mod : _modules)
        mod->attachFaults(f);
    _spare->attachFaults(f);
}

void
GlobalMemory::registerStats(StatRegistry &reg)
{
    reg.addCounter(child("reads"), _reads);
    reg.addCounter(child("writes"), _writes);
    reg.addCounter(child("syncs"), _syncs);
    reg.addSample(child("read_latency"), _read_latency);
    _forward->registerStats(reg);
    if (_reverse)
        _reverse->registerStats(reg);
    for (auto &mod : _modules)
        mod->registerStats(reg);
    _spare->registerStats(reg);
}

void
GlobalMemory::saveState(CheckpointWriter &w) const
{
    auto &sec = w.section(name());
    sec.counter("reads", _reads);
    sec.counter("writes", _writes);
    sec.counter("syncs", _syncs);
    sec.sample("read_latency", _read_latency);
    sec.i64("failed_module", _failed_module);
    _forward->saveState(w);
    if (_reverse)
        _reverse->saveState(w);
    for (const auto &m : _modules)
        m->saveState(w);
    _spare->saveState(w);
}

void
GlobalMemory::restoreState(const CheckpointReader &r)
{
    const auto &sec = r.section(name());
    sec.counter("reads", _reads);
    sec.counter("writes", _writes);
    sec.counter("syncs", _syncs);
    sec.sample("read_latency", _read_latency);
    auto failed = sec.i64("failed_module");
    if (failed < -1 || failed >= static_cast<std::int64_t>(numModules())) {
        checkpointError(name(), "snapshot failed_module " +
                                    std::to_string(failed) +
                                    " is out of range for " +
                                    std::to_string(numModules()) +
                                    " modules");
    }
    _failed_module = static_cast<int>(failed);
    _forward->restoreState(r);
    if (_reverse)
        _reverse->restoreState(r);
    for (auto &m : _modules)
        m->restoreState(r);
    _spare->restoreState(r);
}

} // namespace cedar::mem
