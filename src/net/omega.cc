/**
 * @file
 * Topology and Lawrie tag routing for the omega network.
 */

#include "omega.hh"

#include <limits>

#include "sim/error.hh"

namespace cedar::net {

namespace {

unsigned
productOfRadices(const std::vector<unsigned> &radices)
{
    sim_assert(!radices.empty(), "network needs at least one stage");
    unsigned ports = 1;
    for (unsigned r : radices) {
        sim_assert(r >= 2, "stage radix must be at least 2, got ", r);
        // A wrapped product would leave a zero tag-digit weight, and
        // the routing tables would divide by it.
        sim_assert(ports <= std::numeric_limits<unsigned>::max() / r,
                   "stage radices overflow the port count");
        ports *= r;
    }
    return ports;
}

} // namespace

OmegaNetwork::OmegaNetwork(const std::string &name,
                           std::vector<unsigned> stage_radices,
                           Cycles hop_latency, Cycles word_occupancy,
                           unsigned port_queue_words)
    : Topology(name, productOfRadices(stage_radices), hop_latency,
               word_occupancy),
      _radices(std::move(stage_radices))
{
    initStages(static_cast<unsigned>(_radices.size()), port_queue_words);
    // A route is a fixed function of (wire, destination), so the
    // shuffle and tag arithmetic (about five divisions a stage) runs
    // once here, in 64 bits, rather than once per hop.
    const std::uint64_t n = numPorts();
    _switch_base.resize(_radices.size() * n);
    _tag_digit.resize(_radices.size() * n);
    std::uint64_t weight = n;
    for (std::size_t s = 0; s < _radices.size(); ++s) {
        const std::uint64_t r = _radices[s];
        weight /= r;
        for (std::uint64_t i = 0; i < n; ++i) {
            // Wire i: the generalized perfect shuffle picks the switch
            // it enters. Destination i: its mixed-radix digit (Lawrie
            // tag control) picks that switch's output.
            std::uint64_t shuffled = (i * r) % n + (i * r) / n;
            _switch_base[s * n + i] =
                static_cast<std::uint32_t>(s * n + shuffled / r * r);
            _tag_digit[s * n + i] =
                static_cast<std::uint32_t>((i / weight) % r);
        }
    }
}

std::vector<unsigned>
OmegaNetwork::routingTag(unsigned dest) const
{
    sim_assert(dest < numPorts(), "destination ", dest, " out of range");
    // Mixed-radix decomposition, most significant digit first: the digit
    // consumed at stage i has weight equal to the product of the radices
    // of all later stages.
    std::vector<unsigned> tag(_radices.size());
    unsigned weight = numPorts();
    for (std::size_t i = 0; i < _radices.size(); ++i) {
        weight /= _radices[i];
        tag[i] = (dest / weight) % _radices[i];
    }
    return tag;
}

unsigned
OmegaNetwork::route(unsigned in_port, unsigned dest,
                    std::uint32_t *out) const
{
    const unsigned n = numPorts();
    sim_assert(in_port < n, "input port ", in_port, " out of range");
    sim_assert(dest < n, "destination ", dest, " out of range");
    const unsigned stages = static_cast<unsigned>(_radices.size());
    // Indices into stage s's table rows. Hop s is port c of stage s,
    // flat index s * N + c, so adding N indexes wire c in stage s + 1.
    std::uint32_t wire = in_port;
    std::uint32_t digit = dest;
    for (unsigned s = 0; s < stages; ++s) {
        std::uint32_t hop = _switch_base[wire] + _tag_digit[digit];
        out[s] = hop;
        wire = hop + n;
        digit += n;
    }
    const std::uint32_t last = (stages - 1) * n;
    sim_assert(out[stages - 1] == last + dest,
               "routing did not terminate at destination: got ",
               out[stages - 1] - last, " expected ", dest);
    return stages;
}

} // namespace cedar::net
