/**
 * @file
 * Crossbar routing: one stage, the destination port itself.
 */

#include "crossbar.hh"

namespace cedar::net {

CrossbarNetwork::CrossbarNetwork(const std::string &name,
                                 unsigned num_ports, Cycles hop_latency,
                                 Cycles word_occupancy,
                                 unsigned port_queue_words,
                                 Cycles arb_cycles)
    : Topology(name, num_ports, hop_latency, word_occupancy, arb_cycles)
{
    initStages(1, port_queue_words);
}

unsigned
CrossbarNetwork::route(unsigned in_port, unsigned dest,
                       std::uint32_t *out) const
{
    sim_assert(in_port < numPorts(), "input port ", in_port,
               " out of range");
    sim_assert(dest < numPorts(), "destination ", dest, " out of range");
    out[0] = dest;
    return 1;
}

} // namespace cedar::net
