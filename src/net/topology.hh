/**
 * @file
 * The interconnect topology interface.
 *
 * Cedar as built used two omega networks, but the scaled machines (8 to
 * 256 clusters) need alternative fabrics: larger-radix omegas, fat
 * trees, and full crossbars. Every topology models its links as stages
 * of LinkPort objects and routes a packet along a deterministic
 * (stage, output-port) path, so the reservation-based wormhole timing,
 * flow control, fault/ECC retransmission, statistics, and checkpoint
 * contract are shared here; a concrete topology only supplies its
 * routing function and its minimum-latency bound.
 *
 * `minLatency()` is the fabric's analytic floor: the traffic goldens
 * annotate measured latencies against it, and test_topology pins it
 * as a true lower bound on head latency that at least one port pair
 * achieves.
 */

#ifndef CEDARSIM_NET_TOPOLOGY_HH
#define CEDARSIM_NET_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/port.hh"
#include "sim/checkpoint.hh"
#include "sim/fault.hh"
#include "sim/named.hh"
#include "sim/probes.hh"
#include "sim/statreg.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar::net {

/** Result of sending one packet through the network. */
struct TraversalResult
{
    /** Tick at which the packet head arrives at the output port. */
    Tick head_arrival;
    /** Tick at which the packet tail has fully arrived. */
    Tick tail_arrival;
    /** Total cycles spent queueing (contention) along the path. */
    Cycles queueing;
};

/**
 * A unidirectional N-port interconnect. Concrete topologies (omega,
 * fat tree, crossbar) define the stage layout and routing; everything
 * timed or stateful lives here.
 */
class Topology : public Named
{
  public:
    ~Topology() override = default;

    /** Number of input (= output) ports. */
    unsigned numPorts() const { return _num_ports; }

    /** Number of link stages. */
    unsigned numStages() const
    {
        return static_cast<unsigned>(_ports.size() / _num_ports);
    }

    /** Cycles one word occupies any output port of this fabric. */
    Cycles wordOccupancy() const { return _word_occupancy; }

    /** Words of backlog every port queue buffers (0 = unbounded). */
    unsigned portQueueWords() const { return _queue_words; }

    /** Short topology family name ("omega", "fattree", "crossbar"). */
    virtual const char *kindName() const = 0;

    /**
     * Most hops a route can take, and so the most stages a topology
     * may have: an `unsigned` port count allows at most 31 omega
     * stages (radix 2) or 62 fat-tree stages (arity 2).
     */
    static constexpr unsigned max_hops = 64;

    /**
     * Write the output ports a packet visits from @p in_port to
     * @p dest into @p out, in stage order, as flat indices
     * (stage * numPorts() + port), and return their count: at most
     * numStages(), so @p out needs max_hops entries. Pure topology;
     * no timing side effects. The final hop must be port @p dest of
     * the last stage (self-routing).
     */
    virtual unsigned route(unsigned in_port, unsigned dest,
                           std::uint32_t *out) const = 0;

    /** route() as (stage, output-port-index) pairs, for tests and reports. */
    std::vector<std::pair<unsigned, unsigned>>
    path(unsigned in_port, unsigned dest) const;

    /**
     * Minimum (uncontended) head latency through the network: the
     * analytic floor the traffic goldens annotate. Must be a true
     * lower bound over all (in_port, dest) pairs, achieved by at
     * least one of them.
     */
    virtual Cycles minLatency() const = 0;

    /**
     * Send one packet through the network, reserving every output port
     * along the path. Injections must be presented in nondecreasing
     * time order (the event queue guarantees this).
     *
     * @param in_port injecting input port
     * @param dest    destination output port
     * @param words   packet length in 64-bit words (1..4 on Cedar)
     * @param inject  tick at which the packet head enters the network
     */
    TraversalResult traverse(unsigned in_port, unsigned dest,
                             unsigned words, Tick inject);

    /**
     * Output port @p index of stage @p stage, for tests and utilization
     * reports. Throws std::out_of_range for a stage or an index past
     * the fabric's shape.
     */
    const LinkPort &port(unsigned stage, unsigned index) const;

    /** Aggregate words moved through the final stage (delivered). */
    std::uint64_t deliveredWords() const;

    /** End-to-end queueing distribution across all packets. */
    const SampleStat &queueingStat() const { return _queueing; }

    /** Packets retransmitted after in-flight corruption was detected. */
    std::uint64_t retransmits() const { return _retransmits.value(); }

    /** Hops where a full downstream port queue held the head upstream. */
    std::uint64_t backpressureStalls() const
    {
        return _backpressure.value();
    }

    /** Post port enqueue/dequeue events to @p m (nullptr detaches). */
    void attachMonitor(MonitorSink *m) { _monitor = m; }

    /**
     * Attach a fault injector (nullptr detaches): every traversal
     * rolls for in-flight corruption; corrupted packets are detected
     * at the receiver (ECC check) and retransmitted from the source.
     */
    void attachFaults(FaultInjector *f) { _faults = f; }

    /** Register this network's statistics under its component name. */
    void registerStats(StatRegistry &reg);

    /** Every port's reservation clock and statistics, one section. */
    void saveState(CheckpointWriter &w) const;
    void restoreState(const CheckpointReader &r);

  protected:
    /**
     * @param name           hierarchical component name
     * @param num_ports      input (= output) port count
     * @param hop_latency    cycles for a packet head to cross one stage
     * @param word_occupancy cycles one word occupies an output port
     * @param entry_delay    fixed cycles paid once at injection before
     *                       the first hop (e.g. crossbar arbitration);
     *                       latency, not queueing
     */
    Topology(const std::string &name, unsigned num_ports,
             Cycles hop_latency, Cycles word_occupancy,
             Cycles entry_delay = 0);

    /**
     * Build @p count stages of numPorts() link ports, each queueing
     * @p port_queue_words words (0 = unbounded). Refuses more than
     * max_hops stages, and more ports than a 32-bit flat index holds.
     */
    void initStages(unsigned count, unsigned port_queue_words);

    Cycles hopLatency() const { return _hop_latency; }
    Cycles entryDelay() const { return _entry_delay; }

  private:
    TraversalResult traverseOnce(unsigned in_port, unsigned dest,
                                 unsigned words, Tick inject);

    /** Snapshot key prefix of _ports[i]: "s<stage>.p<port>". */
    std::string portKey(std::size_t i) const;

    unsigned _num_ports;
    Cycles _hop_latency;
    Cycles _word_occupancy;
    Cycles _entry_delay;
    unsigned _queue_words = 0;
    /**
     * Every output port, stage-major: port p of stage s is
     * _ports[s * numPorts() + p]. One flat array spares every hop the
     * per-stage vector's indirection.
     */
    std::vector<LinkPort> _ports;
    SampleStat _queueing;
    Counter _retransmits;
    Counter _backpressure;
    MonitorSink *_monitor = nullptr;
    FaultInjector *_faults = nullptr;
};

/** Factory parameters covering every topology family. */
struct TopologyParams
{
    /** "omega", "fattree", or "crossbar". */
    std::string kind = "omega";
    /** Ports; for omega may be 0 to derive from the radices. */
    unsigned num_ports = 0;
    /** Omega: switch radix per stage; product must equal num_ports. */
    std::vector<unsigned> stage_radices{8, 4};
    /** Fat tree: switch arity (0 = largest of 8/4/2 that fits). */
    unsigned fat_tree_arity = 0;
    /** Crossbar: fixed arbitration cycles paid per packet. */
    Cycles crossbar_arb_cycles = 0;
    Cycles hop_latency = 1;
    Cycles word_occupancy = 1;
    unsigned port_queue_words = 2;
};

/**
 * Build a topology by family name. Throws SimError (kind config) for
 * an unknown kind or a shape the family cannot realize.
 */
std::unique_ptr<Topology> makeTopology(const std::string &name,
                                       const TopologyParams &params);

} // namespace cedar::net

#endif // CEDARSIM_NET_TOPOLOGY_HH
