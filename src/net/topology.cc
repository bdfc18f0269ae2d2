/**
 * @file
 * Shared reservation timing, fault retry, statistics, and checkpoint
 * plumbing for every interconnect topology, plus the family factory.
 */

#include "topology.hh"

#include <cstdint>
#include <stdexcept>

#include "net/crossbar.hh"
#include "net/fattree.hh"
#include "net/omega.hh"
#include "sim/error.hh"

namespace cedar::net {

namespace {

/** Cycles the receiver needs to check ECC and request a retransmit. */
constexpr Cycles ecc_check_cycles = 2;

} // namespace

Topology::Topology(const std::string &name, unsigned num_ports,
                   Cycles hop_latency, Cycles word_occupancy,
                   Cycles entry_delay)
    : Named(name),
      _num_ports(num_ports),
      _hop_latency(hop_latency),
      _word_occupancy(word_occupancy),
      _entry_delay(entry_delay)
{
    sim_assert(_num_ports >= 2, "network needs at least two ports, got ",
               _num_ports);
}

void
Topology::initStages(unsigned count, unsigned port_queue_words)
{
    sim_assert(count >= 1, "network needs at least one stage");
    sim_assert(count <= max_hops, "network has ", count,
               " stages; routes hold at most ", max_hops);
    sim_assert(std::uint64_t(count) * _num_ports <= UINT32_MAX,
               "network has too many ports for 32-bit port indices");
    sim_assert(_ports.empty(), "stages already initialized");
    _queue_words = port_queue_words;
    _ports.resize(std::size_t(count) * _num_ports);
}

const LinkPort &
Topology::port(unsigned stage, unsigned index) const
{
    if (stage >= numStages()) {
        throw std::out_of_range(name() + ": stage " +
                                std::to_string(stage) + " of " +
                                std::to_string(numStages()));
    }
    if (index >= _num_ports) {
        throw std::out_of_range(name() + ": port " +
                                std::to_string(index) + " of " +
                                std::to_string(_num_ports));
    }
    return _ports[std::size_t(stage) * _num_ports + index];
}

std::vector<std::pair<unsigned, unsigned>>
Topology::path(unsigned in_port, unsigned dest) const
{
    std::uint32_t hops[max_hops];
    unsigned count = route(in_port, dest, hops);
    std::vector<std::pair<unsigned, unsigned>> out;
    out.reserve(count);
    for (unsigned h = 0; h < count; ++h)
        out.emplace_back(hops[h] / _num_ports, hops[h] % _num_ports);
    return out;
}

TraversalResult
Topology::traverseOnce(unsigned in_port, unsigned dest, unsigned words,
                       Tick inject)
{
    // The hops go on the stack: every global-memory read routes two
    // packets, and test_topology pins that traversal never allocates.
    std::uint32_t hops[max_hops];
    unsigned count = route(in_port, dest, hops);
    Tick t = inject + _entry_delay;
    Cycles queueing = 0;
    for (unsigned h = 0; h < count; ++h) {
        LinkPort &port = _ports[hops[h]];
        // Flow control: a bounded downstream queue holds the head
        // upstream until it has room. Entry can be delayed at most to
        // the port's busy horizon, so the start tick — and therefore
        // end-to-end timing — is unchanged; only where the wait is
        // spent (and who observes it) moves.
        Tick entry =
            std::max(t, port.entryFree(_word_occupancy, _queue_words));
        if (entry > t)
            _backpressure.inc();
        Tick start = port.acquire(entry, words, _word_occupancy,
                                  _queue_words);
        queueing += start - t;
        t = start + _hop_latency;
    }
    return TraversalResult{t, t + (words - 1) * _word_occupancy, queueing};
}

TraversalResult
Topology::traverse(unsigned in_port, unsigned dest, unsigned words,
                   Tick inject)
{
    sim_assert(words >= 1 && words <= 4,
               "Cedar packets are one to four words, got ", words);
    TraversalResult res = traverseOnce(in_port, dest, words, inject);
    Cycles queueing = res.queueing;
    if (_faults) {
        // Each attempt rolls for in-flight corruption; the receiver's
        // ECC check detects it after the tail lands and the source
        // retransmits, re-reserving every port on the path (real extra
        // traffic, visible in contention stats).
        unsigned attempts = 0;
        while (_faults->corruptPacket()) {
            if (++attempts > _faults->spec().net_retry_limit) {
                throw SimError(
                    SimError::Kind::fault, name(), inject,
                    "packet " + std::to_string(in_port) + "->" +
                        std::to_string(dest) + " exceeded " +
                        std::to_string(_faults->spec().net_retry_limit) +
                        " retransmissions (unrecoverable corruption)");
            }
            _retransmits.inc();
            Tick retry = res.tail_arrival + ecc_check_cycles;
            res = traverseOnce(in_port, dest, words, retry);
            // The whole replay (ECC check + full re-transit) is delay
            // caused by the fault: charge it as queueing so degradation
            // shows where Cedar's hardware monitor would have seen it.
            queueing += ecc_check_cycles + (res.head_arrival - retry);
        }
        res.queueing = queueing;
    }
    _queueing.sample(static_cast<double>(queueing));
    if (_monitor) {
        _monitor->record(inject, Signal::net_enqueue, words);
        _monitor->record(res.head_arrival, Signal::net_dequeue,
                         static_cast<std::int64_t>(queueing));
    }
    return res;
}

void
Topology::registerStats(StatRegistry &reg)
{
    reg.addSample(child("queueing"), _queueing);
    reg.addScalar(child("delivered_words"), [this] {
        return static_cast<double>(deliveredWords());
    });
    reg.addScalar(child("busy_cycles"), [this] {
        return static_cast<double>(deliveredWords() * _word_occupancy);
    });
    reg.addCounter(child("retransmits"), _retransmits);
    reg.addCounter(child("backpressure_stalls"), _backpressure);
}

std::uint64_t
Topology::deliveredWords() const
{
    std::uint64_t total = 0;
    for (auto p = _ports.end() - _num_ports; p != _ports.end(); ++p)
        total += p->wordCount();
    return total;
}

void
Topology::saveState(CheckpointWriter &w) const
{
    auto &sec = w.section(name());
    sec.sample("queueing", _queueing);
    sec.counter("retransmits", _retransmits);
    sec.counter("backpressure_stalls", _backpressure);
    for (std::size_t i = 0; i < _ports.size(); ++i)
        _ports[i].saveFields(sec, portKey(i), _word_occupancy);
}

void
Topology::restoreState(const CheckpointReader &r)
{
    const auto &sec = r.section(name());
    sec.sample("queueing", _queueing);
    sec.counter("retransmits", _retransmits);
    sec.counter("backpressure_stalls", _backpressure);
    for (std::size_t i = 0; i < _ports.size(); ++i)
        _ports[i].restoreFields(sec, portKey(i), _word_occupancy);
}

std::string
Topology::portKey(std::size_t i) const
{
    // Appended piecewise: GCC 12 misreads "literal" + std::string&&
    // as an overlapping copy (-Wrestrict).
    std::string key = "s";
    key += std::to_string(i / _num_ports);
    key += ".p";
    key += std::to_string(i % _num_ports);
    return key;
}

std::unique_ptr<Topology>
makeTopology(const std::string &name, const TopologyParams &params)
{
    auto reject = [&](const std::string &msg) {
        throw SimError(SimError::Kind::config, name, currentErrorTick(),
                       msg);
    };
    if (params.kind == "omega") {
        std::vector<unsigned> radices = params.stage_radices;
        unsigned ports = 1;
        for (unsigned r : radices)
            ports *= r;
        if (params.num_ports != 0 && ports != params.num_ports) {
            reject("omega radices cover " + std::to_string(ports) +
                   " ports but num_ports is " +
                   std::to_string(params.num_ports));
        }
        return std::make_unique<OmegaNetwork>(
            name, std::move(radices), params.hop_latency,
            params.word_occupancy, params.port_queue_words);
    }
    if (params.kind == "fattree") {
        if (params.num_ports < 2)
            reject("fat tree needs num_ports >= 2");
        return std::make_unique<FatTreeNetwork>(
            name, params.num_ports, params.fat_tree_arity,
            params.hop_latency, params.word_occupancy,
            params.port_queue_words);
    }
    if (params.kind == "crossbar") {
        if (params.num_ports < 2)
            reject("crossbar needs num_ports >= 2");
        return std::make_unique<CrossbarNetwork>(
            name, params.num_ports, params.hop_latency,
            params.word_occupancy, params.port_queue_words,
            params.crossbar_arb_cycles);
    }
    reject("unknown topology kind '" + params.kind +
           "' (expected omega, fattree, or crossbar)");
    return nullptr; // unreachable
}

} // namespace cedar::net
