/**
 * @file
 * A d-ary fat tree (folded Clos) interconnect.
 *
 * N = d^L processor ports hang off the leaves of an L-level tree whose
 * link capacity doubles toward the root, giving full bisection
 * bandwidth. A packet climbs to the lowest common ancestor of source
 * and destination and descends; near traffic (same leaf switch) pays
 * only two hops while worst-case traffic pays 2L, so unlike the omega
 * network the fat tree rewards locality.
 *
 * Link model: each level has N upward and N downward links. Upward
 * links are dedicated per source (a source injects one packet at a
 * time, so the climb is contention-free — the full-bisection
 * property). The d^j parallel downward links into a level-j subtree
 * are spread deterministically by source index, so uniform traffic
 * fans out across them while hot-spot traffic collapses, as it must,
 * onto the single link entering the destination leaf.
 */

#ifndef CEDARSIM_NET_FATTREE_HH
#define CEDARSIM_NET_FATTREE_HH

#include <string>
#include <vector>

#include "net/topology.hh"

namespace cedar::net {

/** Fat tree with deterministic source-spread down-link selection. */
class FatTreeNetwork : public Topology
{
  public:
    /**
     * @param name             hierarchical component name
     * @param num_ports        leaf count; must be an exact power of
     *                         the arity
     * @param arity            switch arity d (0 = largest of 8/4/2
     *                         that divides num_ports into d^L exactly)
     * @param hop_latency      cycles for a head to cross one level
     * @param word_occupancy   cycles one word occupies a link
     * @param port_queue_words per-link queue capacity in words
     */
    FatTreeNetwork(const std::string &name, unsigned num_ports,
                   unsigned arity, Cycles hop_latency,
                   Cycles word_occupancy, unsigned port_queue_words = 2);

    const char *kindName() const override { return "fattree"; }

    /** Switch arity d. */
    unsigned arity() const { return _arity; }

    /** Tree levels L (num_ports = d^L). */
    unsigned levels() const { return _levels; }

    /**
     * Climb to the lowest common ancestor, then descend. Stages
     * [0, L) are up links (port = source), stages [L, 2L) are down
     * links ordered root-to-leaf so the final stage is delivery.
     */
    unsigned route(unsigned in_port, unsigned dest,
                   std::uint32_t *out) const override;

    /** Nearest pair still transits its leaf switch: up one, down one. */
    Cycles
    minLatency() const override
    {
        return 2 * hopLatency();
    }

  private:
    unsigned _arity;
    unsigned _levels;
    /** _pow[j] = arity^j, j in [0, levels]. */
    std::vector<unsigned> _pow;
};

} // namespace cedar::net

#endif // CEDARSIM_NET_FATTREE_HH
