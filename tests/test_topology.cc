/**
 * @file
 * Property battery for the interconnect topology families: routing
 * uniqueness and self-routing, packet conservation, the min-latency
 * floor (the analytic bound the goldens annotate), and bisection
 * sanity, over multiple shape points per family — mirroring the omega
 * invariants test_net.cc has always pinned. It also checks the omega's
 * routing tables against Lawrie's arithmetic, and that traversal never
 * allocates: this executable replaces the global operator new to
 * count calls.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "mem/globalmem.hh"
#include "net/crossbar.hh"
#include "net/fattree.hh"
#include "net/omega.hh"
#include "net/topology.hh"
#include "sim/checkpoint.hh"
#include "sim/error.hh"
#include "sim/random.hh"

using namespace cedar;
using net::CrossbarNetwork;
using net::FatTreeNetwork;
using net::OmegaNetwork;
using net::Topology;
using net::TopologyParams;

namespace {

/** Global operator new calls so far in this process. */
std::atomic<std::size_t> allocations{0};

} // namespace

// Counting replacements for the global allocator; the array and
// nothrow forms forward to these. Kept out of line so the compiler
// does not pair an inlined free() with the new expression it serves.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

/** One topology instance under test, with a human-readable label. */
struct Shape
{
    std::string label;
    std::unique_ptr<Topology> net;
};

/** >= 5 shape points per family, small enough for all-pairs sweeps. */
std::vector<Shape>
allShapes()
{
    std::vector<Shape> shapes;
    auto omega = [&](std::vector<unsigned> radices) {
        std::string label = "omega";
        for (unsigned r : radices) {
            // Appended piecewise: GCC 12 misreads "." + std::string&&
            // as an overlapping copy (-Wrestrict).
            label += '.';
            label += std::to_string(r);
        }
        shapes.push_back(
            {label, std::make_unique<OmegaNetwork>(label, radices, 1, 1)});
    };
    omega({8, 4});
    omega({4, 8});
    omega({8, 8});
    omega({2, 2, 2});
    omega({16});
    omega({4, 4, 4});
    auto fattree = [&](unsigned ports, unsigned arity) {
        std::string label = "fattree." + std::to_string(ports) + "x" +
                            std::to_string(arity);
        shapes.push_back({label, std::make_unique<FatTreeNetwork>(
                                     label, ports, arity, 1, 1)});
    };
    fattree(8, 2);
    fattree(16, 4);
    fattree(16, 2);
    fattree(64, 8);
    fattree(64, 4);
    fattree(256, 4);
    auto crossbar = [&](unsigned ports) {
        std::string label = "crossbar." + std::to_string(ports);
        shapes.push_back({label, std::make_unique<CrossbarNetwork>(
                                     label, ports, 1, 1)});
    };
    crossbar(8);
    crossbar(16);
    crossbar(32);
    crossbar(100); // crossbars do not need power-of-two port counts
    crossbar(256);
    return shapes;
}

} // namespace

// Every path must terminate at its destination on the final stage
// (self-routing), and for a fixed destination every source must
// converge on the same delivery link (routing uniqueness).
TEST(Topology, SelfRoutingAndDeliveryUniqueness)
{
    for (const Shape &s : allShapes()) {
        SCOPED_TRACE(s.label);
        unsigned n = s.net->numPorts();
        for (unsigned dest = 0; dest < n; ++dest) {
            for (unsigned src = 0; src < n; ++src) {
                auto hops = s.net->path(src, dest);
                ASSERT_FALSE(hops.empty());
                EXPECT_EQ(hops.back().first, s.net->numStages() - 1);
                EXPECT_EQ(hops.back().second, dest);
                // Stages are visited in strictly increasing order, so
                // no path can loop through a link twice.
                for (std::size_t h = 1; h < hops.size(); ++h)
                    EXPECT_LT(hops[h - 1].first, hops[h].first);
            }
        }
    }
}

// For any fixed (src, dest) the path is a pure function — two calls
// agree — and distinct destinations from one source never share their
// delivery link.
TEST(Topology, PathsAreDeterministic)
{
    for (const Shape &s : allShapes()) {
        SCOPED_TRACE(s.label);
        unsigned n = s.net->numPorts();
        for (unsigned dest = 0; dest < n; dest += 3) {
            EXPECT_EQ(s.net->path(1 % n, dest), s.net->path(1 % n, dest));
        }
    }
}

// route() fills at most numStages() of the caller's max_hops slots and
// ends on port dest of the last stage, for every family, including
// the 2048-port fabrics CedarConfig::scaled(256) builds.
TEST(Topology, RouteFitsItsStagesAndEndsAtDestination)
{
    std::vector<Shape> shapes = allShapes();
    shapes.push_back({"omega.2048", std::make_unique<OmegaNetwork>(
                                        "omega.2048",
                                        std::vector<unsigned>{8, 8, 8, 4},
                                        1, 1)});
    shapes.push_back({"fattree.2048", std::make_unique<FatTreeNetwork>(
                                          "fattree.2048", 2048, 0, 1, 1)});
    shapes.push_back({"crossbar.2048", std::make_unique<CrossbarNetwork>(
                                           "crossbar.2048", 2048, 1, 1)});
    for (const Shape &s : shapes) {
        SCOPED_TRACE(s.label);
        unsigned n = s.net->numPorts();
        ASSERT_LE(s.net->numStages(), Topology::max_hops);
        std::uint32_t last = (s.net->numStages() - 1) * n;
        std::uint32_t hops[Topology::max_hops];
        // Every pair up to 256 ports, every 7th source beyond.
        unsigned step = n > 256 ? 7 : 1;
        for (unsigned src = 0; src < n; src += step) {
            for (unsigned dest = 0; dest < n; ++dest) {
                unsigned count = s.net->route(src, dest, hops);
                ASSERT_GE(count, 1u);
                ASSERT_LE(count, s.net->numStages());
                ASSERT_EQ(hops[count - 1], last + dest)
                    << src << "->" << dest;
            }
        }
    }
}

// The omega's tabulated route must be Lawrie's arithmetic hop for
// hop: the generalized perfect shuffle of the wire into each stage,
// then the destination's tag digit selecting the switch output. The
// shapes are every omega above plus the 512- and 2048-port shapes
// CedarConfig::scaled builds; all pairs up to 512 ports, a seeded
// sample at 2048.
TEST(Topology, OmegaTableRouteMatchesLawrieArithmetic)
{
    const std::vector<std::vector<unsigned>> shapes = {
        {8, 4},    {4, 8},    {8, 8},    {2, 2, 2},
        {16},      {4, 4, 4}, {8, 8, 8}, {8, 8, 8, 4}};
    for (const auto &radices : shapes) {
        OmegaNetwork net("omega", radices, 1, 1);
        const std::uint64_t n = net.numPorts();
        SCOPED_TRACE(n);
        auto expect_lawrie = [&](unsigned in, unsigned dest) {
            std::vector<unsigned> tag = net.routingTag(dest);
            auto hops = net.path(in, dest);
            ASSERT_EQ(hops.size(), radices.size());
            std::uint64_t c = in;
            for (unsigned s = 0; s < radices.size(); ++s) {
                std::uint64_t r = radices[s];
                c = (c * r) % n + (c * r) / n;
                c = c / r * r + tag[s];
                ASSERT_EQ(hops[s].first, s);
                ASSERT_EQ(hops[s].second, c)
                    << in << "->" << dest << " stage " << s;
            }
        };
        if (n <= 512) {
            for (unsigned in = 0; in < n; ++in)
                for (unsigned dest = 0; dest < n; ++dest)
                    expect_lawrie(in, dest);
        } else {
            Rng rng(0x1A3E);
            for (unsigned i = 0; i < 10'000; ++i) {
                unsigned in = static_cast<unsigned>(rng.below(n));
                expect_lawrie(in, static_cast<unsigned>(rng.below(n)));
            }
        }
    }
}

// 65536 x 65537 wraps to 65536 ports in 32 bits; the constructor must
// refuse it rather than divide by the zero tag-digit weight it leaves.
TEST(Topology, OmegaRefusesRadicesThatOverflowThePortCount)
{
    EXPECT_THROW(OmegaNetwork("omega", {65536, 65537}, 1, 1), SimError);
}

// Every global-memory read routes two packets, so the traversal path
// must not touch the heap: an allocation per packet is a measurable
// share of a read.
TEST(Topology, TraversalAllocatesNothing)
{
    for (const Shape &s : allShapes()) {
        SCOPED_TRACE(s.label);
        unsigned n = s.net->numPorts();
        std::size_t before = allocations.load();
        for (unsigned i = 0; i < 1000; ++i)
            s.net->traverse(i % n, (7 * i + 3) % n, 1 + i % 4, 2 * i);
        EXPECT_EQ(allocations.load() - before, 0u);
    }
}

TEST(Topology, GlobalMemoryReadAllocatesNothing)
{
    mem::GlobalMemory gm("gm", mem::GlobalMemoryParams{});
    std::size_t before = allocations.load();
    for (unsigned i = 0; i < 1000; ++i)
        gm.read(i % gm.numPorts(), mem::globalAddr(3 * i), 10 * i);
    EXPECT_EQ(allocations.load() - before, 0u);
}

// Words injected must equal words counted at the delivery stage: no
// packet is dropped or duplicated by any routing function.
TEST(Topology, PacketConservation)
{
    for (const Shape &s : allShapes()) {
        SCOPED_TRACE(s.label);
        unsigned n = s.net->numPorts();
        Rng rng(0xC0DA + n);
        std::uint64_t injected = 0;
        Tick t = 0;
        for (unsigned i = 0; i < 200; ++i) {
            unsigned src = static_cast<unsigned>(rng.below(n));
            unsigned dest = static_cast<unsigned>(rng.below(n));
            unsigned words = 1 + static_cast<unsigned>(rng.below(4));
            s.net->traverse(src, dest, words, t);
            injected += words;
            t += 2; // nondecreasing injection order
        }
        EXPECT_EQ(s.net->deliveredWords(), injected);
    }
}

// minLatency() must be a true lower bound over every port pair — the
// traffic goldens annotate measured latencies against this analytic
// floor — and it must be achieved by at least one pair (it is a floor,
// not padding).
TEST(Topology, MinLatencyIsAnAchievedFloor)
{
    for (const Shape &s : allShapes()) {
        SCOPED_TRACE(s.label);
        unsigned n = s.net->numPorts();
        Cycles floor = s.net->minLatency();
        bool achieved = false;
        Tick t = 0;
        for (unsigned src = 0; src < n; ++src) {
            for (unsigned dest = 0; dest < n; ++dest) {
                // Spacing the injections far apart keeps every port
                // idle, so each traversal sees an empty network.
                t += 64;
                auto res = s.net->traverse(src, dest, 1, t);
                Cycles latency = res.head_arrival - t;
                EXPECT_GE(latency, floor) << src << "->" << dest;
                EXPECT_EQ(res.queueing, 0u) << src << "->" << dest;
                achieved = achieved || latency == floor;
            }
        }
        EXPECT_TRUE(achieved);
    }
}

// Bisection sanity: the half-shift permutation (src -> src + N/2)
// pushes N/2 packets across the machine's midline. Every family here
// claims full bisection bandwidth, so those paths must be pairwise
// link-disjoint — injected together they all arrive with zero
// queueing, and the delivery stage shows N/2 distinct links.
TEST(Topology, BisectionHalfShiftIsConflictFree)
{
    for (const Shape &s : allShapes()) {
        SCOPED_TRACE(s.label);
        unsigned n = s.net->numPorts();
        if (n % 2 != 0)
            continue; // the 100-port crossbar point is covered below
        std::set<std::pair<unsigned, unsigned>> links;
        std::size_t path_links = 0;
        for (unsigned src = 0; src < n / 2; ++src) {
            for (auto hop : s.net->path(src, src + n / 2)) {
                links.insert(hop);
                ++path_links;
            }
            auto res = s.net->traverse(src, src + n / 2, 1, 0);
            EXPECT_EQ(res.queueing, 0u) << "src " << src;
        }
        // Pairwise disjoint: the union is as large as the multiset.
        EXPECT_EQ(links.size(), path_links);
    }
}

// The same permutation on an odd-port crossbar (no midline tricks
// needed: distinct destinations never share the single stage's links).
TEST(Topology, OddPortCrossbarPermutationIsConflictFree)
{
    CrossbarNetwork net("xbar", 101, 1, 1);
    for (unsigned src = 0; src < net.numPorts(); ++src) {
        auto res =
            net.traverse(src, (src + 50) % net.numPorts(), 1, 0);
        EXPECT_EQ(res.queueing, 0u);
    }
}

TEST(Topology, FatTreeLocalityPaysFewerHops)
{
    FatTreeNetwork net("ft", 64, 4, 1, 1);
    // Same leaf switch: up one level and straight back down.
    EXPECT_EQ(net.path(0, 1).size(), 2u);
    // Opposite corners: the full climb to the root.
    EXPECT_EQ(net.path(0, 63).size(), 2u * net.levels());
    // A self-packet still transits its leaf switch.
    EXPECT_EQ(net.path(5, 5).size(), 2u);
}

TEST(Topology, FatTreeHotSpotCollapsesOntoDeliveryLink)
{
    FatTreeNetwork net("ft", 16, 4, 1, 1);
    // Every source aims at port 3: the delivery link serializes.
    Tick worst = 0;
    for (unsigned src = 0; src < 16; ++src) {
        auto res = net.traverse(src, 3, 1, 0);
        worst = std::max(worst, res.head_arrival);
    }
    EXPECT_GE(worst, Tick(16)); // one word-occupancy each, serialized
}

TEST(Topology, CrossbarArbitrationDelayIsLatencyNotQueueing)
{
    CrossbarNetwork base("x0", 32, 1, 1, 2, 0);
    CrossbarNetwork arb("x2", 32, 1, 1, 2, 2);
    EXPECT_EQ(base.minLatency(), 1u);
    EXPECT_EQ(arb.minLatency(), 3u);
    auto r0 = base.traverse(4, 9, 1, 100);
    auto r2 = arb.traverse(4, 9, 1, 100);
    EXPECT_EQ(r0.head_arrival, 101u);
    EXPECT_EQ(r2.head_arrival, 103u);
    EXPECT_EQ(r2.queueing, 0u);
}

TEST(Topology, FactoryDispatchesByKind)
{
    TopologyParams p;
    p.kind = "omega";
    p.stage_radices = {8, 4};
    p.num_ports = 32;
    EXPECT_STREQ(net::makeTopology("t", p)->kindName(), "omega");

    p.kind = "fattree";
    p.num_ports = 64;
    p.fat_tree_arity = 0; // auto resolves to 8
    auto ft = net::makeTopology("t", p);
    EXPECT_STREQ(ft->kindName(), "fattree");
    EXPECT_EQ(static_cast<FatTreeNetwork &>(*ft).arity(), 8u);

    p.kind = "crossbar";
    p.crossbar_arb_cycles = 1;
    auto xb = net::makeTopology("t", p);
    EXPECT_STREQ(xb->kindName(), "crossbar");
    EXPECT_EQ(xb->minLatency(), 2u);
}

TEST(Topology, FactoryRejectsImpossibleShapes)
{
    auto expect_config_error = [](TopologyParams p) {
        try {
            net::makeTopology("t", p);
            FAIL() << "expected a config SimError";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::config);
        }
    };
    TopologyParams p;
    p.kind = "torus"; // not implemented
    expect_config_error(p);

    p = TopologyParams{};
    p.kind = "omega";
    p.stage_radices = {8, 4};
    p.num_ports = 64; // radices cover 32
    expect_config_error(p);

    p = TopologyParams{};
    p.kind = "fattree";
    p.num_ports = 48; // not a power of any arity
    expect_config_error(p);

    p = TopologyParams{};
    p.kind = "fattree";
    p.num_ports = 64;
    p.fat_tree_arity = 5; // 64 is not a power of 5
    expect_config_error(p);

    // Past 2^31 ports, arity^levels would wrap before reaching the
    // port count; the arity check must still terminate and reject.
    p = TopologyParams{};
    p.kind = "fattree";
    p.num_ports = 3'000'000'000u;
    expect_config_error(p);
    p.fat_tree_arity = 2;
    expect_config_error(p);
}

// The combined variant routes responses back through the forward
// fabric: same object, and request/response traffic contend there.
TEST(Topology, CombinedNetAliasesForwardFabric)
{
    mem::GlobalMemoryParams p;
    p.combined_net = true;
    mem::GlobalMemory gm("gm", p);
    EXPECT_TRUE(gm.combinedNet());
    EXPECT_EQ(&gm.forwardNet(), &gm.reverseNet());

    mem::GlobalMemoryParams split;
    mem::GlobalMemory gm2("gm2", split);
    EXPECT_FALSE(gm2.combinedNet());
    EXPECT_NE(&gm2.forwardNet(), &gm2.reverseNet());

    // Same uncontended round trip: the combined fabric only differs
    // under load, when both directions queue on the same links.
    EXPECT_EQ(gm.minReadLatency(), gm2.minReadLatency());
    auto r = gm.read(3, mem::globalAddr(17), 10);
    EXPECT_EQ(r.data_at_port, 10 + gm.minReadLatency());
}

// A topology served through GlobalMemory must keep the checkpoint
// round trip exact (the port clocks live in the topology base), and
// its snapshot bytes must not drift: each fabric's length and CRC-32
// are pinned, so a changed port layout or key cannot go unnoticed.
namespace {

struct FrozenSnapshot
{
    std::string topology;
    std::size_t bytes;
    std::uint32_t crc;
};

/** Names each case by its fabric, so test names are stable. */
void
PrintTo(const FrozenSnapshot &s, std::ostream *os)
{
    *os << s.topology;
}

} // namespace

class GlobalMemoryCheckpoint
    : public ::testing::TestWithParam<FrozenSnapshot>
{
};

TEST_P(GlobalMemoryCheckpoint, RoundTripsWithFrozenBytes)
{
    mem::GlobalMemoryParams p;
    p.topology = GetParam().topology;
    mem::GlobalMemory gm("gm", p);
    for (unsigned i = 0; i < 20; ++i)
        gm.read(i % gm.numPorts(), mem::globalAddr(3 * i), 10 * i);

    CheckpointWriter w(200);
    gm.saveState(w);
    std::string snap = w.finish();
    // The CRC of the bytes before the trailer: a CRC over a message
    // that ends in its own CRC is the same constant for every snapshot.
    EXPECT_EQ(snap.size(), GetParam().bytes);
    EXPECT_EQ(crc32(snap.data(), snap.size() - 4), GetParam().crc);

    mem::GlobalMemory fresh("gm", p);
    CheckpointReader r(snap);
    fresh.restoreState(r);
    CheckpointWriter w2(200);
    fresh.saveState(w2);
    EXPECT_EQ(snap, w2.finish());
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, GlobalMemoryCheckpoint,
    ::testing::Values(FrozenSnapshot{"omega", 43566, 574949828u},
                      FrozenSnapshot{"fattree", 176110, 1461529975u},
                      FrozenSnapshot{"crossbar", 26998, 3122653423u}));

namespace {

/**
 * A hand-written section for a two-port crossbar whose port 0 carried
 * one 3-word packet at 2 cycles per word, with its busy cycles and
 * packet count written as given.
 */
std::string
crossbarSnapshot(std::uint64_t busy_cycles, std::uint64_t packets)
{
    SampleStat none;
    SampleStat one_wait;
    one_wait.sample(0.0);
    CheckpointWriter w(0);
    auto &sec = w.section("xb");
    sec.sample("queueing", none);
    sec.u64("retransmits", 0);
    sec.u64("backpressure_stalls", 0);
    for (unsigned p = 0; p < 2; ++p) {
        std::string key = "s0.p" + std::to_string(p);
        sec.u64(key + ".next_free", p == 0 ? 6 : 0);
        sec.u64(key + ".busy_cycles", p == 0 ? busy_cycles : 0);
        sec.u64(key + ".words", p == 0 ? 3 : 0);
        sec.u64(key + ".packets", p == 0 ? packets : 0);
        sec.sample(key + ".wait", p == 0 ? one_wait : none);
    }
    return w.finish();
}

} // namespace

// Busy cycles are words x occupancy and packets are the waits sampled;
// a snapshot that says otherwise was not written by this model.
TEST(Topology, RestoreRefusesPortStatsThatDisagreeWithWordsAndWaits)
{
    auto restore = [](const std::string &snap) {
        CrossbarNetwork xb("xb", 2, 1, 2);
        xb.restoreState(CheckpointReader(snap));
        return xb.port(0, 0).nextFree();
    };
    EXPECT_EQ(restore(crossbarSnapshot(6, 1)), 6u);
    for (const std::string &snap :
         {crossbarSnapshot(3, 1), crossbarSnapshot(6, 2)}) {
        try {
            restore(snap);
            FAIL() << "restore accepted inconsistent port statistics";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::checkpoint);
        }
    }
}
