/**
 * @file
 * Synthetic traffic subsystem tests: schedule determinism (the
 * golden-cell contract), pattern structure, typed rejection of
 * impossible parameters, and the scaled machines the generators were
 * built to stress.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "machine/cedar.hh"
#include "net/crossbar.hh"
#include "net/traffic.hh"
#include "sim/error.hh"

using namespace cedar;
using net::TrafficGenerator;
using net::TrafficParams;
using net::TrafficPattern;
using net::TrafficResult;

namespace {

/** Run @p params against a fresh machine of the given shape. */
TrafficResult
runOn(const machine::CedarConfig &cfg, const TrafficParams &params)
{
    machine::CedarMachine m(cfg);
    return net::runTraffic(m.sim(), m.gm().forwardNet(),
                           m.gm().reverseNet(), params);
}

bool
identical(const TrafficResult &a, const TrafficResult &b)
{
    return a.packets == b.packets && a.mean_latency == b.mean_latency &&
           a.max_latency == b.max_latency &&
           a.mean_queueing == b.mean_queueing &&
           a.delivered_words == b.delivered_words &&
           a.makespan == b.makespan;
}

} // namespace

TEST(Traffic, PatternNamesRoundTrip)
{
    for (TrafficPattern p : net::allTrafficPatterns())
        EXPECT_EQ(net::trafficPatternFromName(net::trafficPatternName(p)),
                  p);
    EXPECT_THROW(net::trafficPatternFromName("tornado"), SimError);
}

TEST(Traffic, ScheduleIsAPureFunctionOfSeedAndRound)
{
    TrafficParams p;
    p.pattern = TrafficPattern::uniform;
    p.seed = 77;
    TrafficGenerator a(64, p);
    TrafficGenerator b(64, p);
    for (unsigned round = 0; round < 16; ++round)
        EXPECT_EQ(a.destinations(round), b.destinations(round));

    // A different seed must produce a different schedule somewhere.
    p.seed = 78;
    TrafficGenerator c(64, p);
    bool differs = false;
    for (unsigned round = 0; round < 16 && !differs; ++round)
        differs = a.destinations(round) != c.destinations(round);
    EXPECT_TRUE(differs);
}

TEST(Traffic, BitReversalIsAnInvolutionPermutation)
{
    TrafficParams p;
    p.pattern = TrafficPattern::bit_reversal;
    TrafficGenerator gen(64, p);
    auto dest = gen.destinations(0);
    std::set<unsigned> image(dest.begin(), dest.end());
    EXPECT_EQ(image.size(), 64u); // permutation
    for (unsigned src = 0; src < 64; ++src)
        EXPECT_EQ(dest[dest[src]], src); // involution
    // The same every round: bit reversal has no random component.
    EXPECT_EQ(gen.destinations(0), gen.destinations(9));
}

TEST(Traffic, TransposeIsAPermutation)
{
    TrafficParams p;
    p.pattern = TrafficPattern::transpose;
    for (unsigned ports : {16u, 32u, 128u}) {
        TrafficGenerator gen(ports, p);
        auto dest = gen.destinations(0);
        std::set<unsigned> image(dest.begin(), dest.end());
        EXPECT_EQ(image.size(), ports);
    }
    // On an even bit count it is the classic matrix transpose:
    // dest swaps the high and low halves of the source index.
    TrafficGenerator gen(16, p);
    EXPECT_EQ(gen.destinations(0)[0b0111], 0b1101u);
}

TEST(Traffic, HotSpotConvergesTheRequestedFraction)
{
    TrafficParams p;
    p.pattern = TrafficPattern::hot_spot;
    p.hot_fraction = 0.5;
    p.hot_port = 11;
    TrafficGenerator gen(64, p);
    unsigned hot = 0, total = 0;
    for (unsigned round = 0; round < 64; ++round) {
        for (unsigned d : gen.destinations(round)) {
            hot += d == 11 ? 1 : 0;
            ++total;
        }
    }
    double fraction = double(hot) / double(total);
    EXPECT_GT(fraction, 0.4);
    EXPECT_LT(fraction, 0.6);
}

TEST(Traffic, RejectsInvalidHotFractionsWithTypedError)
{
    for (double bad : {0.0, -0.25, 1.5}) {
        TrafficParams p;
        p.pattern = TrafficPattern::hot_spot;
        p.hot_fraction = bad;
        try {
            TrafficGenerator gen(64, p);
            FAIL() << "hot fraction " << bad << " must be rejected";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::config);
        }
    }
    // The boundary value 1.0 (every packet hot) is legal.
    TrafficParams p;
    p.pattern = TrafficPattern::hot_spot;
    p.hot_fraction = 1.0;
    TrafficGenerator gen(64, p);
    for (unsigned d : gen.destinations(3))
        EXPECT_EQ(d, 0u);
}

TEST(Traffic, RejectsImpossibleShapesWithTypedError)
{
    auto expect_config = [](unsigned ports, TrafficParams p) {
        try {
            TrafficGenerator gen(ports, p);
            FAIL() << "expected a config SimError";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::config);
        }
    };
    TrafficParams p;
    p.pattern = TrafficPattern::bit_reversal;
    expect_config(100, p); // permutations need power-of-two ports
    p.pattern = TrafficPattern::transpose;
    expect_config(48, p);
    p = TrafficParams{};
    p.rounds = 0;
    expect_config(64, p);
    p = TrafficParams{};
    p.request_words = 5;
    expect_config(64, p);
    p = TrafficParams{};
    p.hot_port = 64;
    p.pattern = TrafficPattern::hot_spot;
    expect_config(64, p);
}

// The golden-cell contract: the same traffic run on a fresh machine
// produces bit-identical aggregates on every rerun.
TEST(Traffic, RerunsAreBitIdentical)
{
    auto cfg = machine::CedarConfig::scaled(2);
    for (TrafficPattern pattern : net::allTrafficPatterns()) {
        TrafficParams p;
        p.pattern = pattern;
        p.rounds = 12;
        auto first = runOn(cfg, p);
        auto second = runOn(cfg, p);
        EXPECT_TRUE(identical(first, second))
            << net::trafficPatternName(pattern);
        EXPECT_EQ(first.packets, 12u * 16u);
    }
}

// Folding both directions onto one fabric must cost latency under
// load (requests and replies now contend) and never deadlock.
TEST(Traffic, CombinedNetworkContendsButCompletes)
{
    TrafficParams p;
    p.pattern = TrafficPattern::hot_spot;
    p.hot_fraction = 0.5;
    p.rounds = 16;
    p.round_interval = 1; // saturating injection
    auto split = runOn(machine::CedarConfig::scaled(2), p);
    auto combined =
        runOn(machine::CedarConfig::scaled(2, "omega", true), p);
    EXPECT_EQ(split.packets, combined.packets);
    EXPECT_GE(combined.mean_latency, split.mean_latency);
}

// The scaled() factory must produce structurally valid machines over
// the whole 1..256-cluster range the golden battery exercises — this
// is the regression guard for latent small-machine assumptions in the
// radix decomposition and module interleave.
TEST(Traffic, ScaledConfigsValidateFromOneToTwoFiftySixClusters)
{
    for (unsigned clusters : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
        for (const char *topo : {"omega", "fattree", "crossbar"}) {
            auto cfg = machine::CedarConfig::scaled(clusters, topo);
            EXPECT_NO_THROW(cfg.validate())
                << clusters << " clusters, " << topo;
            EXPECT_EQ(cfg.gm.num_ports, clusters * 8) << topo;
            // The interleave requires a power-of-two module count.
            EXPECT_EQ(cfg.gm.num_modules & (cfg.gm.num_modules - 1), 0u);
            if (std::string(topo) == "omega") {
                unsigned p = 1;
                for (unsigned r : cfg.gm.stage_radices)
                    p *= r;
                EXPECT_EQ(p, cfg.gm.num_ports) << clusters << " clusters";
            }
        }
    }
}

// 32x the paper's machine: a 256-cluster (2048-port) system must
// build and complete a traffic scenario — the acceptance criterion
// that surfaced any remaining <=8-cluster assumptions.
TEST(Traffic, TwoFiftySixClustersBuildAndServeTraffic)
{
    auto cfg = machine::CedarConfig::scaled(256);
    TrafficParams p;
    p.rounds = 2;
    auto res = runOn(cfg, p);
    EXPECT_EQ(res.packets, 2u * 2048u);
    EXPECT_EQ(res.delivered_words, res.packets);
    EXPECT_GT(res.mean_latency, 0.0);
}

// Every topology family serves the same packet count with a sane
// latency floor — the (machine x topology x traffic) matrix the
// golden cells freeze is built on exactly this loop.
TEST(Traffic, AllTopologiesServeAllPatterns)
{
    for (const char *topo : {"omega", "fattree", "crossbar"}) {
        for (TrafficPattern pattern : net::allTrafficPatterns()) {
            TrafficParams p;
            p.pattern = pattern;
            p.rounds = 6;
            machine::CedarMachine m(machine::CedarConfig::scaled(2, topo));
            auto res = net::runTraffic(m.sim(), m.gm().forwardNet(),
                                       m.gm().reverseNet(), p);
            EXPECT_EQ(res.packets, 6u * 16u) << topo;
            EXPECT_GE(res.mean_latency,
                      double(m.gm().forwardNet().minLatency() +
                             m.gm().reverseNet().minLatency()))
                << topo;
            EXPECT_EQ(res.delivered_words, res.packets) << topo;
        }
    }
}
