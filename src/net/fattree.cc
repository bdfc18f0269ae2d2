/**
 * @file
 * Fat-tree shape derivation and LCA up/down routing.
 */

#include "fattree.hh"

#include "sim/error.hh"

namespace cedar::net {

namespace {

/** Levels L such that arity^L == ports, or 0 if not an exact power. */
unsigned
levelsFor(unsigned ports, unsigned arity)
{
    unsigned levels = 0;
    while (ports > 1 && ports % arity == 0) {
        ports /= arity;
        ++levels;
    }
    return ports == 1 ? levels : 0;
}

unsigned
resolveArity(const std::string &name, unsigned ports, unsigned arity)
{
    if (arity == 0) {
        for (unsigned d : {8u, 4u, 2u})
            if (levelsFor(ports, d) != 0)
                return d;
        throw SimError(SimError::Kind::config, name, currentErrorTick(),
                       "fat tree auto-arity: " + std::to_string(ports) +
                           " ports is not a power of 8, 4, or 2");
    }
    if (arity < 2) {
        throw SimError(SimError::Kind::config, name, currentErrorTick(),
                       "fat tree arity must be at least 2, got " +
                           std::to_string(arity));
    }
    if (levelsFor(ports, arity) == 0) {
        throw SimError(SimError::Kind::config, name, currentErrorTick(),
                       std::to_string(ports) +
                           " ports is not an exact power of arity " +
                           std::to_string(arity));
    }
    return arity;
}

} // namespace

FatTreeNetwork::FatTreeNetwork(const std::string &name, unsigned num_ports,
                               unsigned arity, Cycles hop_latency,
                               Cycles word_occupancy,
                               unsigned port_queue_words)
    : Topology(name, num_ports, hop_latency, word_occupancy),
      _arity(resolveArity(name, num_ports, arity)),
      _levels(levelsFor(num_ports, _arity))
{
    _pow.reserve(_levels + 1);
    unsigned p = 1;
    for (unsigned j = 0; j <= _levels; ++j) {
        _pow.push_back(p);
        p *= _arity;
    }
    initStages(2 * _levels, port_queue_words);
}

unsigned
FatTreeNetwork::route(unsigned in_port, unsigned dest,
                      std::uint32_t *out) const
{
    const unsigned n = numPorts();
    sim_assert(in_port < n, "input port ", in_port, " out of range");
    sim_assert(dest < n, "destination ", dest, " out of range");
    // Lowest common ancestor: the smallest level whose subtree holds
    // both endpoints. A self-packet still transits its leaf switch.
    unsigned lca = 0;
    while (in_port / _pow[lca] != dest / _pow[lca])
        ++lca;
    if (lca == 0)
        lca = 1;
    unsigned hops = 0;
    // Climb on the source's dedicated up links.
    for (unsigned i = 0; i < lca; ++i)
        out[hops++] = i * n + in_port;
    // Descend: the link entering level j belongs to dest's level-j
    // subtree; the subtree's pow[j] parallel links are spread by
    // source index. Stage 2L-1-j orders the descent root-to-leaf.
    for (unsigned j = lca; j-- > 0;) {
        unsigned group = (dest / _pow[j]) * _pow[j];
        out[hops++] = (2 * _levels - 1 - j) * n + group + in_port % _pow[j];
    }
    sim_assert(out[hops - 1] == (2 * _levels - 1) * n + dest,
               "fat tree routing did not terminate at destination");
    return hops;
}

} // namespace cedar::net
