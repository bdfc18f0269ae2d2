/**
 * @file
 * The Cedar multistage shuffle-exchange (omega) network.
 *
 * The network is built from crossbar switches with 64-bit-wide paths and
 * is self-routing: the destination port number, expressed as a sequence
 * of per-stage digits (Lawrie's tag-control scheme), selects one switch
 * output at every stage, giving a unique path between any input/output
 * pair. Stage radices may be mixed (e.g. 8 then 4 for a 32-port network
 * built from 8x8 crossbars feeding 4-way used switches), as long as the
 * product of the radices equals the port count.
 *
 * Timing uses reservation-based wormhole modeling: a packet's head pays
 * one hop latency per stage and queues wherever an output port is still
 * occupied by an earlier packet; the port then stays busy for one
 * word-occupancy per packet word. Injections must be presented in
 * nondecreasing time order (the event queue guarantees this), which
 * makes the model causally exact for latency, interarrival, and
 * sustained-bandwidth statistics. The timing machinery is shared with
 * every other fabric through the Topology base class.
 */

#ifndef CEDARSIM_NET_OMEGA_HH
#define CEDARSIM_NET_OMEGA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hh"

namespace cedar::net {

/**
 * A unidirectional multistage network (Cedar has two: forward to the
 * memory modules and reverse back to the processors).
 */
class OmegaNetwork : public Topology
{
  public:
    /**
     * @param name             hierarchical component name
     * @param stage_radices    switch radix per stage; product = port count
     * @param hop_latency      cycles for a packet head to cross one stage
     * @param word_occupancy   cycles one word occupies an output port
     * @param port_queue_words per-port queue capacity in words (the
     *                         Cedar switches buffer two words; 0 =
     *                         unbounded, for tests only)
     */
    OmegaNetwork(const std::string &name,
                 std::vector<unsigned> stage_radices, Cycles hop_latency,
                 Cycles word_occupancy, unsigned port_queue_words = 2);

    const char *kindName() const override { return "omega"; }

    /** Radix of stage @p s. */
    unsigned stageRadix(unsigned s) const { return _radices.at(s); }

    /**
     * Lawrie routing tag for a destination: one output digit per stage.
     * Following the digits from any input port reaches @p dest.
     */
    std::vector<unsigned> routingTag(unsigned dest) const;

    unsigned route(unsigned in_port, unsigned dest,
                   std::uint32_t *out) const override;

    /** One hop latency per stage, uniform over all port pairs. */
    Cycles
    minLatency() const override
    {
        return hopLatency() * numStages();
    }

  private:
    std::vector<unsigned> _radices;
    /**
     * Lawrie routing tabulated per stage, both stage-major like the
     * ports: _switch_base[s * N + c] is the flat index of the first
     * output of the stage-s switch that wire c enters after the
     * shuffle, and _tag_digit[s * N + d] is destination d's stage-s
     * tag digit. Their sum is the hop's flat port index.
     */
    std::vector<std::uint32_t> _switch_base;
    std::vector<std::uint32_t> _tag_digit;
};

} // namespace cedar::net

#endif // CEDARSIM_NET_OMEGA_HH
