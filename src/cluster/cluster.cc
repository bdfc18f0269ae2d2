/**
 * @file
 * Cluster assembly.
 */

#include "cluster.hh"

namespace cedar::cluster {

Cluster::Cluster(const std::string &name, Simulation &sim,
                 mem::GlobalMemory &gm, unsigned first_port,
                 const ClusterParams &params)
    : Named(name), _sim(sim), _params(params)
{
    sim_assert(_params.num_ces > 0, "cluster needs at least one CE");
    _cmem = std::make_unique<ClusterMemory>(child("cmem"), _params.cmem);
    _cache =
        std::make_unique<SharedCache>(child("cache"), _params.cache, *_cmem);
    _ccb = std::make_unique<ConcurrencyControlBus>(
        child("ccb"), sim, _params.num_ces, _params.ccb);
    _ces.reserve(_params.num_ces);
    for (unsigned i = 0; i < _params.num_ces; ++i) {
        _ces.push_back(std::make_unique<ComputationalElement>(
            child("ce" + std::to_string(i)), sim, gm, first_port + i,
            *_cache, *_cmem, *this, _params.ce, _params.pfu));
    }
}

unsigned
Cluster::newBarrier(unsigned participants)
{
    sim_assert(participants > 0 && participants <= numCes(), "barrier of ",
               participants, " CEs in a ", numCes(), "-CE cluster");
    unsigned id = _next_barrier_id++;
    _barriers.emplace(id, _ccb->makeBarrier(participants));
    return id;
}

CcBarrier &
Cluster::barrier(unsigned id)
{
    auto it = _barriers.find(id);
    sim_assert(it != _barriers.end(), "unknown barrier id ", id);
    return it->second;
}

double
Cluster::totalFlops() const
{
    double total = 0.0;
    for (const auto &ce : _ces)
        total += ce->flops();
    return total;
}

void
Cluster::attachMonitor(MonitorSink *m)
{
    _cache->attachMonitor(m);
    for (auto &ce : _ces)
        ce->pfu().attachMonitor(m);
}

void
Cluster::registerStats(StatRegistry &reg)
{
    _cache->registerStats(reg);
    _ccb->registerStats(reg);
    for (auto &ce : _ces)
        ce->registerStats(reg);
}

void
Cluster::saveState(CheckpointWriter &w) const
{
    auto &sec = w.section(name());
    sec.u64("next_barrier_id", _next_barrier_id);
    sec.u64("barrier_count", _barriers.size());
    std::size_t i = 0;
    for (const auto &[id, barrier] : _barriers) {
        if (barrier.waiting() != 0) {
            checkpointError(name(),
                            "barrier " + std::to_string(id) + " has " +
                                std::to_string(barrier.waiting()) +
                                " waiters; checkpoints are legal only "
                                "at quiescent points");
        }
        std::string key = "barrier" + std::to_string(i++);
        sec.u64(key + ".id", id);
        sec.u64(key + ".participants", barrier.participants());
    }
    _cmem->saveState(w);
    _cache->saveState(w);
    _ccb->saveState(w);
    for (const auto &ce : _ces)
        ce->saveState(w);
}

void
Cluster::restoreState(const CheckpointReader &r)
{
    const auto &sec = r.section(name());
    // Restore only a table newBarrier() can build: distinct ids below
    // next_barrier_id (so the next id is fresh), each over 1..numCes()
    // participants (so it can release).
    _next_barrier_id = sec.u32("next_barrier_id");
    std::uint64_t count = sec.u64("barrier_count");
    if (count > _next_barrier_id) {
        checkpointError(name(), std::to_string(count) +
                                    " barriers but next_barrier_id " +
                                    std::to_string(_next_barrier_id));
    }
    _barriers.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        std::string key = "barrier" + std::to_string(i);
        unsigned id = sec.u32(key + ".id");
        unsigned participants = sec.u32(key + ".participants");
        std::string what = "barrier " + std::to_string(id);
        if (id >= _next_barrier_id)
            checkpointError(name(), what + " is not below next_barrier_id");
        if (participants == 0 || participants > numCes()) {
            checkpointError(name(), what + " has " +
                                        std::to_string(participants) +
                                        " participants in a " +
                                        std::to_string(numCes()) +
                                        "-CE cluster");
        }
        if (!_barriers.emplace(id, _ccb->makeBarrier(participants)).second)
            checkpointError(name(), what + " appears twice");
    }
    _cmem->restoreState(r);
    _cache->restoreState(r);
    _ccb->restoreState(r);
    for (auto &ce : _ces)
        ce->restoreState(r);
}

} // namespace cedar::cluster
