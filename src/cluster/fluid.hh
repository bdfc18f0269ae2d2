/**
 * @file
 * A bandwidth-shared resource with reservation timing.
 *
 * Several Cedar components are best described by an aggregate word rate
 * rather than discrete ports: the 4-way interleaved shared cache moves
 * eight words per instruction cycle for the whole cluster, and cluster
 * memory moves four. A FluidResource tracks occupancy in sub-cycle
 * "word slots" (capacity slots per cycle) so concurrent consumers share
 * the rate exactly without fractional ticks.
 */

#ifndef CEDARSIM_CLUSTER_FLUID_HH
#define CEDARSIM_CLUSTER_FLUID_HH

#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar::cluster {

/** A resource delivering a fixed number of words per cycle, shared. */
class FluidResource
{
  public:
    /**
     * @param words_per_cycle aggregate capacity
     * @param contention_penalty_pct extra slots charged (as a per-cent
     *        of the request size) when a request finds the resource
     *        busy — interleaved banks lose a fraction of their peak to
     *        conflicts once several CEs stream concurrently
     */
    explicit FluidResource(unsigned words_per_cycle = 1,
                           unsigned contention_penalty_pct = 0)
        : _capacity(words_per_cycle),
          _penalty_pct(contention_penalty_pct)
    {
        sim_assert(words_per_cycle > 0, "capacity must be positive");
    }

    /**
     * Reserve @p words of transfer beginning no earlier than @p ready.
     * @return tick at which the last word has moved
     */
    Tick
    acquire(Tick ready, std::uint64_t words)
    {
        if (words == 0)
            return ready;
        std::uint64_t ready_slot = ready * _capacity;
        std::uint64_t start = std::max(ready_slot, _next_free_slot);
        _wait_slots.sample(static_cast<double>(start - ready_slot) /
                           static_cast<double>(_capacity));
        std::uint64_t charged = words;
        if (start > ready_slot)
            charged += words * _penalty_pct / 100;
        _next_free_slot = start + charged;
        _words.inc(words);
        // Round up to the cycle in which the final word completes.
        return (_next_free_slot + _capacity - 1) / _capacity;
    }

    unsigned capacity() const { return _capacity; }
    std::uint64_t wordCount() const { return _words.value(); }

    /** Mean cycles a request waited for bandwidth. */
    const SampleStat &waitStat() const { return _wait_slots; }

    /** Fraction of capacity used over an observation window. */
    double
    utilization(Tick window) const
    {
        if (window == 0)
            return 0.0;
        return static_cast<double>(_words.value()) /
               (static_cast<double>(window) * _capacity);
    }

    /** Write the resource's mutable state under @p prefix. */
    void
    saveFields(CheckpointSectionWriter &w, const std::string &prefix) const
    {
        w.u64(prefix + ".next_free_slot", _next_free_slot);
        w.counter(prefix + ".words", _words);
        w.sample(prefix + ".wait_slots", _wait_slots);
    }

    /** Exact inverse of saveFields(). */
    void
    restoreFields(const CheckpointSectionReader &r,
                  const std::string &prefix)
    {
        _next_free_slot = r.u64(prefix + ".next_free_slot");
        r.counter(prefix + ".words", _words);
        r.sample(prefix + ".wait_slots", _wait_slots);
    }

  private:
    unsigned _capacity;
    unsigned _penalty_pct;
    std::uint64_t _next_free_slot = 0;
    Counter _words;
    SampleStat _wait_slots;
};

} // namespace cedar::cluster

#endif // CEDARSIM_CLUSTER_FLUID_HH
