/**
 * @file
 * The parallel-engine determinism battery (sim/pdes.hh).
 *
 * The coordinator's contract is bit-identical results at any thread
 * count, equal to the serial engine's semantics. These tests hold it
 * to that with seeded fuzz corpora (tests/fuzz_schedule.hh) compared
 * three ways — canonical multiset against the serial reference,
 * strict per-partition traces across a thread ladder, and horizon-
 * chunked runs against one-shot runs — plus typed-error checks for
 * every lookahead-contract violation, and machine-level integration:
 * identical stat registries for engine_threads 0/1/2/4 and the
 * checkpoint quiescence gate.
 */

#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "core/cedar.hh"
#include "fuzz_schedule.hh"

using namespace cedar;
using namespace cedar::test::fuzz;
using cedar::test::LambdaEvent;

namespace {

struct QuietEnv : public ::testing::Environment
{
    void SetUp() override { setLogQuiet(true); }
};
const auto *quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

constexpr std::uint64_t corpus_seeds[] = {1, 42, 0xCEDA};

void
expectSameTraces(const std::vector<std::vector<Firing>> &a,
                 const std::vector<std::vector<Firing>> &b,
                 const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t p = 0; p < a.size(); ++p) {
        ASSERT_EQ(a[p].size(), b[p].size())
            << what << ": partition " << p << " event count";
        for (std::size_t i = 0; i < a[p].size(); ++i) {
            ASSERT_EQ(a[p][i].key(), b[p][i].key())
                << what << ": partition " << p << " diverges at firing "
                << i;
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// Fuzzed equivalence: coordinator vs serial reference
// ---------------------------------------------------------------------

TEST(PdesFuzz, FlatCorpusMatchesSerialReferenceCanonically)
{
    // Independent partitions: the corpus firings must land at the same
    // (tick, priority) as on one serial engine, for any thread count.
    // The partition tag differs by construction (serial tags all 0),
    // so sort by (when, priority, index) only.
    auto sortByIdentity = [](std::vector<Firing> v) {
        std::sort(v.begin(), v.end(),
                  [](const Firing &a, const Firing &b) {
                      return std::make_tuple(a.when, a.priority, a.index) <
                             std::make_tuple(b.when, b.priority, b.index);
                  });
        return v;
    };
    for (std::uint64_t seed : corpus_seeds) {
        auto serial =
            sortByIdentity(canonical({runFlatSerial(seed, 500, 200)}));
        for (unsigned threads : {1u, 4u}) {
            auto part = sortByIdentity(canonical(
                runFlatPartitioned(seed, 500, 200, 4, threads)));
            ASSERT_EQ(serial.size(), part.size());
            for (std::size_t i = 0; i < serial.size(); ++i) {
                ASSERT_EQ(serial[i].when, part[i].when)
                    << "seed " << seed << " firing " << i;
                ASSERT_EQ(serial[i].priority, part[i].priority)
                    << "seed " << seed << " firing " << i;
                ASSERT_EQ(serial[i].index, part[i].index)
                    << "seed " << seed << " firing " << i;
            }
        }
    }
}

TEST(PdesFuzz, MessageCorpusMatchesSerialReferenceCanonically)
{
    // Cross-partition messages: same corpus on one serial engine (the
    // reference semantics) and under the full windowed protocol.
    for (std::uint64_t seed : corpus_seeds) {
        MessageCorpus mc;
        mc.seed = seed;
        auto serial = canonical(runMessageSerial(mc));
        ASSERT_GT(serial.size(), 200u) << "corpus degenerated";
        auto coord = canonical(runMessageCorpus(mc, 1));
        ASSERT_EQ(serial.size(), coord.size()) << "seed " << seed;
        for (std::size_t i = 0; i < serial.size(); ++i) {
            ASSERT_EQ(serial[i].key(), coord[i].key())
                << "seed " << seed << " diverges at canonical firing "
                << i;
        }
    }
}

TEST(PdesFuzz, MessageCorpusRawTracesIdenticalAcrossThreadCounts)
{
    // The strict form of the contract: each partition's execution
    // order — not just the multiset — is identical at every thread
    // count.
    for (std::uint64_t seed : corpus_seeds) {
        MessageCorpus mc;
        mc.seed = seed;
        auto reference = runMessageCorpus(mc, 1);
        for (unsigned threads : {2u, 4u, 8u}) {
            auto traces = runMessageCorpus(mc, threads);
            expectSameTraces(reference, traces,
                             "seed " + std::to_string(seed) + ", " +
                                 std::to_string(threads) + " threads");
        }
    }
}

TEST(PdesFuzz, MessageCorpusStableAcrossPartitionCounts)
{
    // More partitions than threads, fewer partitions than threads —
    // the window protocol must not care.
    for (unsigned partitions : {2u, 5u, 8u}) {
        MessageCorpus mc;
        mc.partitions = partitions;
        auto reference = runMessageCorpus(mc, 1);
        auto threaded = runMessageCorpus(mc, 3);
        expectSameTraces(reference, threaded,
                         std::to_string(partitions) + " partitions");
    }
}

TEST(PdesFuzz, HorizonChunkedRunsMatchOneShotRun)
{
    // runUntil composition: driving the coordinator in fixed-size
    // horizon chunks (as benches and telemetry do) must execute the
    // identical trace as one run to completion.
    MessageCorpus mc;
    auto oneshot = runMessageCorpus(mc, 2);

    CoordEnv env(mc, 2);
    std::function<void(unsigned, unsigned, unsigned)> step;
    driveMessageCorpus(mc, env, step);
    for (Tick horizon = 37; !env.coord.quiescent(); horizon += 37)
        env.coord.runUntil(horizon);
    expectSameTraces(oneshot, env.fired, "chunked vs one-shot");
}

// ---------------------------------------------------------------------
// Lookahead contract violations -> typed SimError
// ---------------------------------------------------------------------

TEST(PdesLookahead, CheckedSendBelowLatencyThrowsTypedError)
{
    EngineCoordinator coord("la", 1);
    unsigned a = coord.addPartition("la.a");
    unsigned b = coord.addPartition("la.b");
    unsigned ab = coord.addChannel(a, b, 5);
    LambdaEvent msg([] {});
    LambdaEvent sender([&] {
        // Earliest legal arrival is 15; 14 violates the contract.
        coord.send(ab, msg, 14);
    });
    coord.partition(a).schedule(sender, 10);
    try {
        coord.run();
        FAIL() << "expected a lookahead SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::lookahead);
        EXPECT_NE(std::string(e.what()).find("minimum latency"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.tick(), 10u);
    }
}

TEST(PdesLookahead, CheckedSendAtExactLatencyIsLegal)
{
    EngineCoordinator coord("la", 1);
    unsigned a = coord.addPartition("la.a");
    unsigned b = coord.addPartition("la.b");
    unsigned ab = coord.addChannel(a, b, 5);
    bool delivered = false;
    LambdaEvent msg([&] { delivered = true; });
    LambdaEvent sender([&] { coord.send(ab, msg, 15); });
    coord.partition(a).schedule(sender, 10);
    coord.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(coord.partition(b).curTick(), 15u);
    EXPECT_EQ(coord.messagesDelivered(), 1u);
}

TEST(PdesLookahead, InjectedViolationCaughtAtDelivery)
{
    // sendUnchecked bypasses the sender-side check; the delivery-side
    // check at the barrier must still refuse a message into the
    // destination's past.
    EngineCoordinator coord("la", 1);
    unsigned a = coord.addPartition("la.a");
    unsigned b = coord.addPartition("la.b");
    unsigned ab = coord.addChannel(a, b, 5);
    // Walk b well past tick 2 first.
    std::deque<LambdaEvent> walk;
    for (Tick t = 0; t <= 20; ++t)
        coord.partition(b).schedule(walk.emplace_back([] {}), t);
    LambdaEvent msg([] {});
    LambdaEvent sender([&] { coord.sendUnchecked(ab, msg, 2); });
    coord.partition(a).schedule(sender, 100);
    try {
        coord.run();
        FAIL() << "expected a lookahead SimError at delivery";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::lookahead);
        EXPECT_NE(std::string(e.what()).find("past"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PdesLookahead, SendingAQueuedEventPanics)
{
    // A message is an event its sender owns; one still queued on the
    // sender's partition cannot also travel a channel.
    EngineCoordinator coord("la", 1);
    unsigned a = coord.addPartition("la.a");
    unsigned b = coord.addPartition("la.b");
    unsigned ab = coord.addChannel(a, b, 5);
    LambdaEvent msg([] {});
    coord.partition(a).schedule(msg, 50);
    try {
        coord.send(ab, msg, 10);
        FAIL() << "expected an assertion SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::assertion);
        EXPECT_NE(std::string(e.what()).find("still queued"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(coord.messagesSent(), 0u);
    coord.run();
    EXPECT_EQ(coord.messagesDelivered(), 0u);
}

TEST(PdesLookahead, ZeroLatencyChannelRejected)
{
    EngineCoordinator coord("la", 1);
    unsigned a = coord.addPartition("la.a");
    unsigned b = coord.addPartition("la.b");
    try {
        coord.addChannel(a, b, 0);
        FAIL() << "expected a config SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::config);
    }
}

TEST(PdesLookahead, SelfChannelRejected)
{
    EngineCoordinator coord("la", 1);
    unsigned a = coord.addPartition("la.a");
    try {
        coord.addChannel(a, a, 5);
        FAIL() << "expected a config SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::config);
    }
}

// ---------------------------------------------------------------------
// Engine semantics under the coordinator
// ---------------------------------------------------------------------

TEST(PdesEngine, StopFromAPartitionStopsTheWholeRun)
{
    EngineCoordinator coord("stop", 2);
    unsigned a = coord.addPartition("stop.a");
    unsigned b = coord.addPartition("stop.b");
    coord.addChannel(a, b, 3);
    bool late_fired = false;
    LambdaEvent late([&] { late_fired = true; });
    LambdaEvent stopper([&] { coord.partition(a).stop(); });
    coord.partition(b).schedule(late, 500);
    coord.partition(a).schedule(stopper, 10);
    coord.run();
    EXPECT_FALSE(late_fired) << "stop() did not stop the whole run";
    EXPECT_FALSE(coord.quiescent()) << "the late event should remain";
}

TEST(PdesEngine, SoloFastPathTakenAndCounted)
{
    // One active partition, nothing in flight: the coordinator must
    // drain it on the serial path, not through window bookkeeping.
    EngineCoordinator coord("solo", 2);
    unsigned a = coord.addPartition("solo.a");
    coord.addPartition("solo.b");
    unsigned fired = 0;
    unsigned left = 50;
    LambdaEvent chain([&] {
        ++fired;
        if (left > 0) {
            --left;
            coord.partition(a).scheduleIn(chain, 3);
        }
    });
    coord.partition(a).schedule(chain, 0);
    coord.run();
    EXPECT_EQ(fired, 51u);
    EXPECT_GT(coord.soloRuns(), 0u);
    EXPECT_EQ(coord.windows(), 0u)
        << "a lone partition should never pay for windows";
}

TEST(PdesEngine, RunUntilLeavesClocksAtHorizonLikeSerial)
{
    // Serial engines set _now = limit when the next event is beyond
    // the horizon; partitions must compose the same way.
    EngineCoordinator coord("hz", 1);
    unsigned a = coord.addPartition("hz.a");
    unsigned b = coord.addPartition("hz.b");
    coord.addChannel(a, b, 5);
    LambdaEvent at100([] {}), at200([] {});
    coord.partition(a).schedule(at100, 100);
    coord.partition(b).schedule(at200, 200);
    coord.runUntil(50);
    EXPECT_EQ(coord.partition(a).curTick(), 50u);
    EXPECT_EQ(coord.partition(b).curTick(), 50u);
    coord.runUntil(150);
    // a drained naturally, so — exactly like the serial engine — its
    // clock stays at its last event; b still has work and advances to
    // the horizon.
    EXPECT_EQ(coord.partition(a).curTick(), 100u);
    EXPECT_EQ(coord.partition(b).curTick(), 150u);
    coord.run();
    EXPECT_EQ(coord.partition(b).curTick(), 200u);
    EXPECT_TRUE(coord.quiescent());
}

// ---------------------------------------------------------------------
// Machine integration
// ---------------------------------------------------------------------

namespace {

/** Full registry text minus the two wall-clock-derived entries (the
 *  documented nondeterministic pair, see CedarMachine::registerStats). */
std::string
deterministicRegistry(machine::CedarMachine &m)
{
    std::istringstream in(m.stats().dumpText());
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("sim.host") == std::string::npos)
            out << line << '\n';
    }
    return out.str();
}

std::string
runKernelUnderEngine(unsigned engine_threads)
{
    machine::CedarConfig cfg;
    cfg.engine_threads = engine_threads;
    machine::CedarMachine machine(cfg);
    kernels::Rank64Params p;
    p.n = 96;
    p.clusters = 2;
    p.version = kernels::Rank64Version::gm_prefetch;
    kernels::runRank64(machine, p);
    return deterministicRegistry(machine);
}

} // namespace

TEST(PdesMachine, RegistryIdenticalAcrossEnginesAndThreadCounts)
{
    std::string serial = runKernelUnderEngine(0);
    ASSERT_GT(serial.size(), 1000u);
    for (unsigned threads : {1u, 2u, 4u}) {
        EXPECT_EQ(serial, runKernelUnderEngine(threads))
            << "registry diverged at engine_threads=" << threads;
    }
}

TEST(PdesMachine, ClusterMapBuildsTheExpectedPartitionGraph)
{
    machine::CedarConfig cfg;
    cfg.engine_threads = 2;
    machine::CedarMachine machine(cfg);
    ASSERT_NE(machine.pdes(), nullptr);
    EngineCoordinator &coord = *machine.pdes();
    // Complex + one partition per cluster, channels both ways each.
    EXPECT_EQ(coord.numPartitions(), cfg.num_clusters + 1);
    EXPECT_EQ(coord.numChannels(), 2 * cfg.num_clusters);
    // Lookahead comes from the omega networks' structural minima.
    Tick fwd = machine.gm().forwardNet().minLatency();
    Tick rev = machine.gm().reverseNet().minLatency();
    EXPECT_EQ(coord.lookahead(), std::min(fwd, rev));
    EXPECT_GE(coord.lookahead(), 1u);
    // The machine's own engine is the complex partition: running the
    // machine delegates to the coordinator.
    EXPECT_EQ(machine.sim().coordinator(), &coord);
}

TEST(PdesMachine, MachineChannelsCarrySyntheticClusterTraffic)
{
    // Drive real cross-partition messages over the machine's own
    // partition graph (the migration seam components will use), and
    // check the coordinator ran real windows deterministically.
    auto run = [](unsigned threads) {
        machine::CedarConfig cfg;
        cfg.engine_threads = threads;
        machine::CedarMachine machine(cfg);
        EngineCoordinator &coord = *machine.pdes();
        // Partition 0 is the complex; 1..4 the clusters. Channel 2c is
        // cluster c -> complex, 2c+1 the reverse.
        std::vector<std::uint64_t> sums(coord.numPartitions(), 0);
        // Messages stay owned by their sending partition for the whole
        // run; each partition's thread appends only to its own deque.
        std::vector<std::deque<LambdaEvent>> sent(coord.numPartitions());
        std::deque<LambdaEvent> ticks;
        for (unsigned c = 0; c < 4; ++c) {
            Tick fwd = coord.channel(2 * c).min_latency;
            Tick rev = coord.channel(2 * c + 1).min_latency;
            auto reply = [&sums, c] { sums[1 + c] ^= 0x5a5au + c; };
            auto request = [&coord, &sums, &sent, c, rev, reply] {
                Simulation &cx = coord.partition(0);
                sums[0] ^= mix(cx.curTick() + c);
                coord.send(2 * c + 1, sent[0].emplace_back(reply),
                           cx.curTick() + rev);
            };
            ticks.emplace_back([&coord, &sums, &sent, &ticks, c, fwd,
                                request, left = 30u]() mutable {
                Simulation &lp = coord.partition(1 + c);
                sums[1 + c] ^= mix(lp.curTick() + c);
                if (left % 2 == 0) {
                    coord.send(2 * c, sent[1 + c].emplace_back(request),
                               lp.curTick() + fwd);
                }
                if (left > 0) {
                    --left;
                    lp.scheduleIn(ticks[c], 2 + c);
                }
            });
            coord.partition(1 + c).schedule(ticks.back(), c);
        }
        machine.sim().run(); // delegates to the coordinator
        EXPECT_GT(coord.windows(), 0u);
        EXPECT_GT(coord.messagesDelivered(), 0u);
        EXPECT_TRUE(coord.quiescent());
        std::uint64_t combined = 0;
        for (std::uint64_t s : sums)
            combined = mix(combined ^ s);
        return combined;
    };
    std::uint64_t reference = run(1);
    EXPECT_EQ(reference, run(2));
    EXPECT_EQ(reference, run(4));
}

TEST(PdesMachine, CheckpointRefusedWhileAMessageIsInFlight)
{
    machine::CedarConfig cfg;
    cfg.engine_threads = 1;
    machine::CedarMachine machine(cfg);
    EngineCoordinator &coord = *machine.pdes();
    // Stage a message on cluster0 -> complex without running: the
    // coordinator is not quiescent, so a snapshot must be refused.
    LambdaEvent msg([] {});
    coord.send(0, msg, coord.channel(0).min_latency);
    try {
        machine.saveCheckpoint();
        FAIL() << "expected a checkpoint SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::checkpoint);
        EXPECT_NE(std::string(e.what()).find("quiescent"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PdesMachine, ConfigRejectsBadEngineKnobs)
{
    machine::CedarConfig cfg;
    cfg.engine_threads = 1000;
    try {
        cfg.validate();
        FAIL() << "expected a config SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::config);
    }
    // And the engine knob stays out of the fingerprint: checkpoints
    // interoperate across engines by design.
    machine::CedarConfig serial_cfg, pdes_cfg;
    pdes_cfg.engine_threads = 4;
    EXPECT_EQ(serial_cfg.fingerprint(), pdes_cfg.fingerprint());
}
