/**
 * @file
 * A serialized network link with reservation-based timing.
 *
 * Every crossbar output port in the Cedar networks carries a 64-bit data
 * path. A packet occupies the port for (words x occupancy) cycles; later
 * packets queue behind it. The port keeps only what cannot be derived:
 * its reservation clock, the words it has carried and the distribution
 * of queueing waits, so contention can be observed exactly where the
 * paper's hardware monitor observed it. The per-word occupancy and the
 * queue depth are the same for every port of a fabric, so the owner
 * holds them once and passes them in; busy cycles (words x occupancy)
 * and packets (waits sampled) are derived.
 */

#ifndef CEDARSIM_NET_PORT_HH
#define CEDARSIM_NET_PORT_HH

#include <algorithm>
#include <string>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar::net {

/** One serialized 64-bit link (a crossbar output port). */
class LinkPort
{
  public:
    /**
     * Reserve the port for a packet.
     *
     * On a capacity-bounded port the caller must respect flow control:
     * handing the port a packet while its queue already holds a full
     * backlog is rejected (the hardware has nowhere to put the words),
     * not silently buffered. Stall upstream until entryFree() instead.
     *
     * @param ready       tick at which the packet head is ready to
     *                    transmit
     * @param words       packet length in 64-bit words
     * @param occupancy   cycles one word occupies the port
     * @param queue_words words of backlog the port queue can buffer
     *                    ahead of a new arrival (0 = unbounded; the
     *                    Cedar crossbar switches have two-word queues)
     * @return tick at which transmission starts (head crosses the port)
     */
    Tick
    acquire(Tick ready, unsigned words, Cycles occupancy,
            unsigned queue_words)
    {
        sim_assert(words > 0, "packet must contain at least one word");
        sim_assert(ready >= entryFree(occupancy, queue_words),
                   "port queue over its ", queue_words,
                   "-word capacity: backlog ", _next_free - ready,
                   " cycles at ready=", ready,
                   "; wait for entryFree() before acquiring");
        Tick start = std::max(ready, _next_free);
        _wait.sample(static_cast<double>(start - ready));
        _words.inc(words);
        _next_free = start + words * occupancy;
        return start;
    }

    /**
     * Earliest tick at which a new packet head may be handed to this
     * port without exceeding its @p queue_words queue (0 when unbounded
     * or the queue has room now). Backpressure: until then the packet
     * must be held upstream.
     */
    Tick
    entryFree(Cycles occupancy, unsigned queue_words) const
    {
        if (queue_words == 0)
            return 0;
        Tick cap_cycles = Tick(queue_words) * occupancy;
        return _next_free > cap_cycles ? _next_free - cap_cycles : 0;
    }

    /** Tick at which the port next becomes idle. */
    Tick nextFree() const { return _next_free; }

    /** Total cycles this port has been occupied. */
    Tick busyCycles(Cycles occupancy) const
    {
        return _words.value() * occupancy;
    }

    /** Total words transferred. */
    std::uint64_t wordCount() const { return _words.value(); }

    /** Total packets transferred: one wait is sampled per packet. */
    std::uint64_t packetCount() const { return _wait.count(); }

    /** Distribution of queueing waits experienced at this port. */
    const SampleStat &waitStat() const { return _wait; }

    void
    resetStats()
    {
        _wait.reset();
        _words.reset();
    }

    /**
     * Write the port's state under @p prefix. Busy cycles and packets
     * are derived but still written, so the snapshot format is fixed.
     */
    void
    saveFields(CheckpointSectionWriter &w, const std::string &prefix,
               Cycles occupancy) const
    {
        w.u64(prefix + ".next_free", _next_free);
        w.u64(prefix + ".busy_cycles", busyCycles(occupancy));
        w.counter(prefix + ".words", _words);
        w.u64(prefix + ".packets", packetCount());
        w.sample(prefix + ".wait", _wait);
    }

    /**
     * Exact inverse of saveFields(). Refuses, with a `checkpoint`
     * SimError, a snapshot whose busy cycles or packet count disagree
     * with the values derived from its words and waits.
     */
    void
    restoreFields(const CheckpointSectionReader &r,
                  const std::string &prefix, Cycles occupancy)
    {
        _next_free = static_cast<Tick>(r.u64(prefix + ".next_free"));
        r.counter(prefix + ".words", _words);
        r.sample(prefix + ".wait", _wait);
        auto expect = [&](const char *field, std::uint64_t derived,
                          const char *rule) {
            std::uint64_t saved = r.u64(prefix + field);
            if (saved != derived) {
                checkpointError(r.name(),
                                prefix + field + " is " +
                                    std::to_string(saved) + " but " +
                                    rule + " is " +
                                    std::to_string(derived));
            }
        };
        expect(".busy_cycles", busyCycles(occupancy),
               "words x occupancy");
        expect(".packets", packetCount(), "wait.count");
    }

  private:
    Tick _next_free = 0;
    Counter _words;
    SampleStat _wait;
};

static_assert(sizeof(LinkPort) == 64,
              "large-fabric traversal is bound by cache misses on ports; "
              "keep a port to 64 bytes");

} // namespace cedar::net

#endif // CEDARSIM_NET_PORT_HH
