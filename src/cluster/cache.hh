/**
 * @file
 * The Alliant FX/8 shared cache.
 *
 * All references to cluster-memory data first check a 512 KB physically
 * addressed shared cache with 32-byte lines. The cache is write-back
 * and lockup-free, allowing each CE two outstanding misses, and its
 * bandwidth is eight 64-bit words per instruction cycle — enough to
 * feed one input stream to a vector instruction in every CE.
 */

#ifndef CEDARSIM_CLUSTER_CACHE_HH
#define CEDARSIM_CLUSTER_CACHE_HH

#include <cstdint>
#include <vector>

#include "cluster/clustermem.hh"
#include "cluster/fluid.hh"
#include "sim/named.hh"
#include "sim/probes.hh"
#include "sim/statreg.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar::cluster {

/** Parameters for the shared cache. */
struct SharedCacheParams
{
    /** Capacity in kilobytes (hardware: 512). */
    unsigned capacity_kb = 512;
    /** Line size in bytes (hardware: 32 = 4 words). */
    unsigned line_bytes = 32;
    /** Associativity. */
    unsigned ways = 4;
    /** Aggregate bandwidth in words per cycle (hardware: 8). */
    unsigned words_per_cycle = 8;
    /** Outstanding misses allowed per CE (hardware: 2, lockup-free). */
    unsigned misses_per_ce = 2;
    /** Bank-conflict loss (percent) once several CEs stream at once. */
    unsigned contention_penalty_pct = 30;
};

/** Outcome of a timed streaming access. */
struct CacheAccessResult
{
    Tick done = 0;
    std::uint64_t hit_words = 0;
    std::uint64_t miss_words = 0;
};

/** The cluster's shared, interleaved, write-back, lockup-free cache. */
class SharedCache : public Named
{
  public:
    SharedCache(const std::string &name, const SharedCacheParams &params,
                ClusterMemory &cmem);

    /**
     * Timed streaming access of @p count words starting at @p start with
     * the given word stride, for one CE's vector instruction.
     *
     * @param start  cluster-space word address
     * @param count  number of elements
     * @param stride word stride between elements
     * @param write  true for a store stream (marks lines dirty)
     * @param ready  tick at which the stream may begin
     */
    CacheAccessResult streamAccess(Addr start, unsigned count,
                                   unsigned stride, bool write,
                                   Tick ready);

    /** Preload a region (e.g. a work array known to be resident). */
    void warm(Addr start, std::uint64_t words);

    /** Drop all lines (software coherence action). */
    void invalidateAll();

    /**
     * Software-coherence flush: write every dirty line back to cluster
     * memory and invalidate the cache. Cedar keeps multiple copies of
     * globally shared data coherent in software; this is the cost of
     * one such action.
     * @param ready earliest start tick
     * @return tick at which the flush completes
     */
    Tick flushAll(Tick ready);

    /** True if the line containing @p addr is present (test hook). */
    bool probe(Addr addr) const;

    unsigned wordsPerLine() const { return _words_per_line; }
    unsigned numSets() const { return _num_sets; }
    std::uint64_t hitCount() const { return _hits.value(); }
    std::uint64_t missCount() const { return _misses.value(); }
    std::uint64_t writebackCount() const { return _writebacks.value(); }

    double
    hitRate() const
    {
        std::uint64_t total = _hits.value() + _misses.value();
        return total ? static_cast<double>(_hits.value()) /
                           static_cast<double>(total)
                     : 0.0;
    }

    FluidResource &bandwidth() { return _bandwidth; }

    /** Post miss/fill/writeback events to @p m (nullptr detaches). */
    void attachMonitor(MonitorSink *m) { _monitor = m; }

    /** Register cache statistics under the component name. */
    void registerStats(StatRegistry &reg);

    /** Full tag store, LRU clock, bandwidth clock, and counters. */
    void saveState(CheckpointWriter &w) const;
    void restoreState(const CheckpointReader &r);

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

    /** Look up (and on miss, fill) the line holding word @p line_addr.
     *  @return true on hit */
    bool touchLine(Addr line_addr, bool write);

    SharedCacheParams _params;
    ClusterMemory &_cmem;
    unsigned _words_per_line;
    unsigned _num_sets;
    std::vector<std::vector<Way>> _sets;
    std::uint64_t _lru_clock = 0;
    std::uint64_t _pending_writeback_words = 0;
    FluidResource _bandwidth;
    Counter _hits;
    Counter _misses;
    Counter _writebacks;
    MonitorSink *_monitor = nullptr;
};

} // namespace cedar::cluster

#endif // CEDARSIM_CLUSTER_CACHE_HH
