/**
 * @file
 * A full N x N crossbar interconnect.
 *
 * Every input reaches every output through a single switching stage, so
 * the only shared resources are the output ports themselves: traffic to
 * distinct destinations never interferes, and all contention shows up
 * as destination-port queueing. That makes the crossbar the latency/
 * bandwidth reference the multistage fabrics are judged against — at
 * the price of O(N^2) crosspoints nobody would build at 2048 ports.
 *
 * A central arbiter grants one input per output per cycle; its fixed
 * decision time is modeled as `arb_cycles` added to every packet's
 * injection (latency, not queueing), which is the knob the golden-cell
 * sensitivity test perturbs.
 */

#ifndef CEDARSIM_NET_CROSSBAR_HH
#define CEDARSIM_NET_CROSSBAR_HH

#include <string>

#include "net/topology.hh"

namespace cedar::net {

/** Single-stage full crossbar with a fixed arbitration delay. */
class CrossbarNetwork : public Topology
{
  public:
    /**
     * @param name             hierarchical component name
     * @param num_ports        input (= output) port count
     * @param hop_latency      cycles for a head to cross the crosspoint
     * @param word_occupancy   cycles one word occupies an output port
     * @param port_queue_words per-port queue capacity in words
     * @param arb_cycles       fixed arbitration delay per packet
     */
    CrossbarNetwork(const std::string &name, unsigned num_ports,
                    Cycles hop_latency, Cycles word_occupancy,
                    unsigned port_queue_words = 2, Cycles arb_cycles = 0);

    const char *kindName() const override { return "crossbar"; }

    /** Fixed arbitration delay paid by every packet. */
    Cycles arbCycles() const { return entryDelay(); }

    unsigned route(unsigned in_port, unsigned dest,
                   std::uint32_t *out) const override;

    /** Arbitration plus the single crosspoint hop. */
    Cycles
    minLatency() const override
    {
        return entryDelay() + hopLatency();
    }
};

} // namespace cedar::net

#endif // CEDARSIM_NET_CROSSBAR_HH
