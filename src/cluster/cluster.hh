/**
 * @file
 * One Cedar cluster: a slightly modified Alliant FX/8 with eight CEs,
 * the shared cache, cluster memory, the concurrency control bus, and a
 * global interface connecting the CEs to the Cedar networks.
 */

#ifndef CEDARSIM_CLUSTER_CLUSTER_HH
#define CEDARSIM_CLUSTER_CLUSTER_HH

#include <map>
#include <memory>
#include <vector>

#include "cluster/cache.hh"
#include "cluster/ccbus.hh"
#include "cluster/ce.hh"
#include "cluster/clustermem.hh"
#include "mem/globalmem.hh"
#include "sim/engine.hh"
#include "sim/named.hh"

namespace cedar::cluster {

/** Parameters for a cluster. */
struct ClusterParams
{
    unsigned num_ces = 8;
    CeParams ce{};
    prefetch::PfuParams pfu{};
    SharedCacheParams cache{};
    ClusterMemoryParams cmem{};
    CcBusParams ccb{};
};

/** An Alliant FX/8 cluster. */
class Cluster : public Named, public BarrierProvider
{
  public:
    /**
     * @param name        component name
     * @param sim         owning simulation
     * @param gm          the global memory system
     * @param first_port  global network port of CE 0 in this cluster
     * @param params      cluster parameters
     */
    Cluster(const std::string &name, Simulation &sim,
            mem::GlobalMemory &gm, unsigned first_port,
            const ClusterParams &params);

    unsigned numCes() const { return _params.num_ces; }
    ComputationalElement &ce(unsigned i) { return *_ces.at(i); }
    const ComputationalElement &ce(unsigned i) const { return *_ces.at(i); }

    SharedCache &cache() { return *_cache; }
    ClusterMemory &clusterMemory() { return *_cmem; }
    ConcurrencyControlBus &ccb() { return *_ccb; }

    /**
     * Create a new intracluster barrier.
     * @param participants CEs that must arrive before release
     * @return barrier id usable in Op::makeBarrier
     */
    unsigned newBarrier(unsigned participants);

    /** BarrierProvider interface. */
    CcBarrier &barrier(unsigned id) override;

    /** Total flops retired by all CEs of this cluster. */
    double totalFlops() const;

    /** Attach a monitor to the cache and every CE's prefetch unit. */
    void attachMonitor(MonitorSink *m);

    /** Register the cluster's statistics (cache, bus, CEs). */
    void registerStats(StatRegistry &reg);

    /**
     * Everything under the cluster: cache, cluster memory, bus, CEs
     * (and their PFUs), plus the barrier table (id -> participants; a
     * quiescent barrier holds no waiters, so identity is its state).
     */
    void saveState(CheckpointWriter &w) const;
    void restoreState(const CheckpointReader &r);

  private:
    Simulation &_sim;
    ClusterParams _params;
    std::unique_ptr<ClusterMemory> _cmem;
    std::unique_ptr<SharedCache> _cache;
    std::unique_ptr<ConcurrencyControlBus> _ccb;
    std::vector<std::unique_ptr<ComputationalElement>> _ces;
    std::map<unsigned, CcBarrier> _barriers;
    unsigned _next_barrier_id = 0;
};

} // namespace cedar::cluster

#endif // CEDARSIM_CLUSTER_CLUSTER_HH
