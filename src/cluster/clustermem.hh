/**
 * @file
 * Cluster memory: the interleaved memory private to one Alliant FX/8
 * cluster. Bandwidth is half the shared cache's (192 MB/s = 4 words per
 * instruction cycle for the cluster); accesses from the cache (line
 * fills, write-backs) and uncached references share it.
 */

#ifndef CEDARSIM_CLUSTER_CLUSTERMEM_HH
#define CEDARSIM_CLUSTER_CLUSTERMEM_HH

#include "cluster/fluid.hh"
#include "sim/named.hh"
#include "sim/types.hh"

namespace cedar::cluster {

/** Parameters for a cluster memory. */
struct ClusterMemoryParams
{
    /** Aggregate bandwidth in words per cycle (192 MB/s ~= 4). */
    unsigned words_per_cycle = 4;
    /** Access latency in cycles before data starts to flow. */
    Cycles latency = 6;
    /** Capacity in megabytes (32 MB per Alliant FX/8). */
    unsigned capacity_mb = 32;
    /** Bank-conflict loss (percent) under concurrent streams. */
    unsigned contention_penalty_pct = 30;
};

/** One cluster's private interleaved memory. */
class ClusterMemory : public Named
{
  public:
    ClusterMemory(const std::string &name,
                  const ClusterMemoryParams &params)
        : Named(name), _params(params),
          _bandwidth(params.words_per_cycle, params.contention_penalty_pct)
    {
    }

    /**
     * Timed transfer of @p words contiguous words.
     * @return tick at which the transfer completes
     */
    Tick
    transfer(Tick ready, std::uint64_t words)
    {
        return _bandwidth.acquire(ready + _params.latency, words);
    }

    const ClusterMemoryParams &params() const { return _params; }
    FluidResource &bandwidth() { return _bandwidth; }
    const FluidResource &bandwidth() const { return _bandwidth; }

    void
    saveState(CheckpointWriter &w) const
    {
        _bandwidth.saveFields(w.section(name()), "bandwidth");
    }

    void
    restoreState(const CheckpointReader &r)
    {
        _bandwidth.restoreFields(r.section(name()), "bandwidth");
    }

  private:
    ClusterMemoryParams _params;
    FluidResource _bandwidth;
};

} // namespace cedar::cluster

#endif // CEDARSIM_CLUSTER_CLUSTERMEM_HH
