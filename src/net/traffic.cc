/**
 * @file
 * Deterministic synthetic traffic schedules and the event-driven
 * injection harness.
 */

#include "traffic.hh"

#include <algorithm>
#include <deque>

#include "sim/error.hh"
#include "sim/random.hh"

namespace cedar::net {

namespace {

constexpr const char *pattern_names[] = {"uniform", "hot_spot",
                                         "bit_reversal", "transpose"};

bool
isPowerOfTwo(unsigned n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

unsigned
bitsOf(unsigned ports)
{
    unsigned bits = 0;
    while ((1u << bits) < ports)
        ++bits;
    return bits;
}

} // namespace

TrafficPattern
trafficPatternFromName(const std::string &name)
{
    for (std::size_t i = 0; i < std::size(pattern_names); ++i)
        if (name == pattern_names[i])
            return static_cast<TrafficPattern>(i);
    throw SimError(SimError::Kind::config, "net.traffic",
                   currentErrorTick(),
                   "unknown traffic pattern '" + name +
                       "' (expected uniform, hot_spot, bit_reversal, "
                       "or transpose)");
}

const char *
trafficPatternName(TrafficPattern pattern)
{
    return pattern_names[static_cast<std::size_t>(pattern)];
}

const std::vector<TrafficPattern> &
allTrafficPatterns()
{
    static const std::vector<TrafficPattern> all{
        TrafficPattern::uniform, TrafficPattern::hot_spot,
        TrafficPattern::bit_reversal, TrafficPattern::transpose};
    return all;
}

TrafficGenerator::TrafficGenerator(unsigned num_ports,
                                   const TrafficParams &params)
    : _num_ports(num_ports), _addr_bits(bitsOf(num_ports)), _params(params)
{
    auto reject = [](const std::string &msg) {
        throw SimError(SimError::Kind::config, "net.traffic",
                       currentErrorTick(), msg);
    };
    if (_num_ports < 2)
        reject("traffic needs at least two ports");
    if (_params.rounds == 0)
        reject("traffic needs at least one round");
    if (_params.round_interval == 0)
        reject("round interval must be at least one cycle");
    if (_params.request_words < 1 || _params.request_words > 4) {
        reject("request packets are one to four words, got " +
               std::to_string(_params.request_words));
    }
    if (_params.response_words > 4) {
        reject("response packets are at most four words, got " +
               std::to_string(_params.response_words));
    }
    if (_params.pattern == TrafficPattern::hot_spot) {
        if (!(_params.hot_fraction > 0.0) || _params.hot_fraction > 1.0) {
            reject("hot-spot fraction must be in (0, 1], got " +
                   std::to_string(_params.hot_fraction));
        }
        if (_params.hot_port >= _num_ports) {
            reject("hot port " + std::to_string(_params.hot_port) +
                   " out of range for " + std::to_string(_num_ports) +
                   " ports");
        }
    }
    if ((_params.pattern == TrafficPattern::bit_reversal ||
         _params.pattern == TrafficPattern::transpose) &&
        !isPowerOfTwo(_num_ports)) {
        reject(std::string(trafficPatternName(_params.pattern)) +
               " traffic needs a power-of-two port count, got " +
               std::to_string(_num_ports));
    }
}

std::vector<unsigned>
TrafficGenerator::destinations(unsigned round) const
{
    std::vector<unsigned> dest(_num_ports);
    // One generator per round, derived from the master seed, keeps the
    // schedule a pure function of (seed, round) — independent of how
    // many rounds any particular run chooses to inject.
    Rng rng(deriveSeed(_params.seed, round));
    switch (_params.pattern) {
    case TrafficPattern::uniform:
        for (unsigned src = 0; src < _num_ports; ++src)
            dest[src] = static_cast<unsigned>(rng.below(_num_ports));
        break;
    case TrafficPattern::hot_spot:
        for (unsigned src = 0; src < _num_ports; ++src) {
            dest[src] = rng.uniform() < _params.hot_fraction
                            ? _params.hot_port
                            : static_cast<unsigned>(
                                  rng.below(_num_ports));
        }
        break;
    case TrafficPattern::bit_reversal:
        for (unsigned src = 0; src < _num_ports; ++src) {
            unsigned rev = 0;
            for (unsigned b = 0; b < _addr_bits; ++b)
                rev |= ((src >> b) & 1u) << (_addr_bits - 1 - b);
            dest[src] = rev;
        }
        break;
    case TrafficPattern::transpose:
        for (unsigned src = 0; src < _num_ports; ++src) {
            // Rotate by half the address bits: the classic matrix-
            // transpose permutation when the bit count is even, still
            // a permutation when it is odd.
            unsigned half = _addr_bits / 2;
            dest[src] = ((src >> half) |
                         (src << (_addr_bits - half))) &
                        (_num_ports - 1);
        }
        break;
    }
    return dest;
}

namespace {

/** What one runTraffic() call shares across its rounds. */
struct TrafficRun
{
    Simulation &sim;
    Topology &fwd;
    Topology &rev;
    const TrafficParams &params;
    TrafficGenerator gen;
    TrafficResult res;
    double latency_sum = 0.0;
    double queueing_sum = 0.0;

    void
    injectRound(unsigned round)
    {
        std::vector<unsigned> dest = gen.destinations(round);
        Tick now = sim.curTick();
        for (unsigned src = 0; src < gen.numPorts(); ++src) {
            auto req = fwd.traverse(src, dest[src], params.request_words,
                                    now);
            Tick head = req.head_arrival;
            Tick tail = req.tail_arrival;
            Cycles queueing = req.queueing;
            if (params.response_words > 0) {
                // The reply turns around as soon as the request tail
                // lands (replies are injected per-packet, so reverse-
                // fabric injections interleave exactly as memory
                // responses do).
                auto rep = rev.traverse(dest[src], src,
                                        params.response_words, tail);
                head = rep.head_arrival;
                tail = rep.tail_arrival;
                queueing += rep.queueing;
            }
            ++res.packets;
            latency_sum += static_cast<double>(head - now);
            queueing_sum += static_cast<double>(queueing);
            res.max_latency = std::max(res.max_latency, Tick(head - now));
            res.makespan = std::max(res.makespan, tail);
        }
        sim.noteProgress();
    }
};

/** Injects one round of the schedule at its tick. */
class RoundEvent : public Event
{
  public:
    RoundEvent(TrafficRun &run, unsigned round) : _run(run), _round(round)
    {
    }

    void process() override { _run.injectRound(_round); }
    const char *description() const override { return "traffic.round"; }

  private:
    TrafficRun &_run;
    unsigned _round;
};

} // namespace

TrafficResult
runTraffic(Simulation &sim, Topology &fwd, Topology &rev,
           const TrafficParams &params)
{
    TrafficRun run{sim, fwd, rev, params,
                   TrafficGenerator(fwd.numPorts(), params), {}};
    sim_assert(rev.numPorts() == fwd.numPorts(),
               "forward and reverse fabrics must agree on port count");
    std::uint64_t delivered_before = fwd.deliveredWords();
    Tick start = sim.curTick();
    std::deque<RoundEvent> rounds;
    for (unsigned round = 0; round < params.rounds; ++round) {
        rounds.emplace_back(run, round);
        sim.schedule(rounds.back(),
                     start + Tick(round) * params.round_interval);
    }
    sim.run();
    TrafficResult res = run.res;
    if (res.packets > 0) {
        double n = static_cast<double>(res.packets);
        res.mean_latency = run.latency_sum / n;
        res.mean_queueing = run.queueing_sum / n;
    }
    res.delivered_words = fwd.deliveredWords() - delivered_before;
    return res;
}

} // namespace cedar::net
