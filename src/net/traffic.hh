/**
 * @file
 * Synthetic network traffic generation.
 *
 * The scaled machines are separated by how their fabrics respond to
 * adversarial address streams, so this subsystem reproduces the four
 * canonical patterns of the network-architecture literature: uniform
 * random, hot-spot (a fraction of all traffic converges on one port),
 * bit-reversal, and transpose. A generator is a pure function of its
 * seed — the same schedule is produced on every rerun and at any
 * --jobs fan-out — and the driver injects each round as an ordinary
 * simulation event so the watchdog and statistics see synthetic
 * traffic exactly like program traffic.
 */

#ifndef CEDARSIM_NET_TRAFFIC_HH
#define CEDARSIM_NET_TRAFFIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hh"
#include "sim/engine.hh"
#include "sim/types.hh"

namespace cedar::net {

/** The canonical synthetic traffic patterns. */
enum class TrafficPattern
{
    /** Every source draws an independent uniform destination per round. */
    uniform,
    /** A fixed fraction of packets converge on one hot port. */
    hot_spot,
    /** dest = bit-reversed source (worst case for shuffle fabrics). */
    bit_reversal,
    /** dest = source rotated by half its bits (matrix transpose). */
    transpose,
};

/** Pattern by canonical name; throws SimError (config) when unknown. */
TrafficPattern trafficPatternFromName(const std::string &name);

/** Canonical name of @p pattern. */
const char *trafficPatternName(TrafficPattern pattern);

/** All four patterns, in canonical order (for sweeps). */
const std::vector<TrafficPattern> &allTrafficPatterns();

/** Parameters of one synthetic traffic run. */
struct TrafficParams
{
    TrafficPattern pattern = TrafficPattern::uniform;
    /** Injection rounds; every port injects one packet per round. */
    unsigned rounds = 32;
    /** Ticks between successive rounds. */
    Cycles round_interval = 4;
    /** Words in a request packet (1..4 on Cedar). */
    unsigned request_words = 1;
    /** Words in the reply returning on the reverse fabric (0 = none). */
    unsigned response_words = 1;
    /** hot_spot: fraction of packets aimed at hot_port, in (0, 1]. */
    double hot_fraction = 0.25;
    /** hot_spot: the converged-upon port. */
    unsigned hot_port = 0;
    /** Master seed; the whole schedule is a pure function of it. */
    std::uint64_t seed = 0x5eedceda;
};

/**
 * A deterministic destination schedule over an N-port fabric.
 * Construction validates the parameters against the port count and
 * throws a SimError of kind `config` for impossible ones (hot
 * fractions outside (0, 1], permutation patterns on non-power-of-two
 * port counts, zero rounds, oversize packets).
 */
class TrafficGenerator
{
  public:
    TrafficGenerator(unsigned num_ports, const TrafficParams &params);

    unsigned numPorts() const { return _num_ports; }
    const TrafficParams &params() const { return _params; }

    /**
     * Destination of every source port in injection round @p round
     * (indexed by source). Pure: depends only on (seed, round, port
     * count), so reruns are bit-identical.
     */
    std::vector<unsigned> destinations(unsigned round) const;

  private:
    unsigned _num_ports;
    unsigned _addr_bits;
    TrafficParams _params;
};

/** Aggregate outcome of one synthetic traffic run. */
struct TrafficResult
{
    /** Request packets injected (rounds x ports). */
    std::uint64_t packets = 0;
    /** Mean request-to-reply head latency (one-way when no replies). */
    double mean_latency = 0.0;
    /** Worst packet latency observed. */
    Tick max_latency = 0;
    /** Mean queueing (forward plus reverse) per packet. */
    double mean_queueing = 0.0;
    /** Words delivered by the forward fabric during the run. */
    std::uint64_t delivered_words = 0;
    /** Tick the last tail (request or reply) fully arrived. */
    Tick makespan = 0;
};

/**
 * Drive a traffic pattern through a forward/reverse fabric pair on
 * @p sim: each round is one scheduled event injecting one packet per
 * source port, with replies (if any) returning on @p rev. Pass the
 * same object as @p fwd and @p rev to model a single combined
 * network where requests and replies contend for the same links.
 * Runs the engine until the traffic drains and returns the totals.
 */
TrafficResult runTraffic(Simulation &sim, Topology &fwd, Topology &rev,
                         const TrafficParams &params);

} // namespace cedar::net

#endif // CEDARSIM_NET_TRAFFIC_HH
