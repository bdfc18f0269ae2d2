/**
 * @file
 * Resilience-subsystem tests: typed SimErrors, machine-config
 * validation, deterministic fault injection, degraded-mode operation
 * of every fault class, and the liveness watchdog's deadlock and
 * livelock detection.
 */

#include <gtest/gtest.h>

#include <deque>

#include "machine/cedar.hh"
#include "runtime/loops.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/watchdog.hh"
#include "test_events.hh"

using namespace cedar;
using namespace cedar::runtime;

namespace {

/** Marks every executed iteration so redistribution can be verified. */
struct IterationRecorder
{
    std::vector<unsigned> counts;
    explicit IterationRecorder(unsigned n) : counts(n, 0) {}

    IterationBody
    body(Cycles cycles = 20)
    {
        return [this, cycles](unsigned iter, unsigned,
                              std::deque<cluster::Op> &out) {
            ASSERT_LT(iter, counts.size());
            ++counts[iter];
            out.push_back(cluster::Op::makeScalar(cycles));
        };
    }

    void
    expectAllOnce() const
    {
        for (unsigned i = 0; i < counts.size(); ++i)
            EXPECT_EQ(counts[i], 1u) << "iteration " << i;
    }
};

/** Body touching network, modules, and sync processors. */
IterationBody
memoryBody(Addr data)
{
    return [data](unsigned iter, unsigned,
                  std::deque<cluster::Op> &out) {
        out.push_back(
            cluster::Op::makeGlobalRead(data + (Addr(iter) * 7) % 256));
        out.push_back(cluster::Op::makeScalar(30));
        out.push_back(
            cluster::Op::makeGlobalWrite(data + (Addr(iter) * 11) % 256));
    };
}

} // namespace

// ---------------------------------------------------------------- SimError

TEST(SimErrorType, CarriesKindComponentAndTick)
{
    SimError e(SimError::Kind::fault, "cedar.gm.fwd", 1234, "boom");
    EXPECT_EQ(e.kind(), SimError::Kind::fault);
    EXPECT_EQ(e.component(), "cedar.gm.fwd");
    EXPECT_EQ(e.tick(), 1234u);
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cedar.gm.fwd"),
              std::string::npos);
}

TEST(SimErrorType, PanicIsAnAssertionSimError)
{
    try {
        panic("invariant ", 7, " broken");
        FAIL() << "panic did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::assertion);
    }
}

TEST(SimErrorType, IsALogicErrorForLegacyCatchSites)
{
    EXPECT_THROW(panic("legacy"), std::logic_error);
}

// ------------------------------------------------------- config validation

TEST(ConfigValidation, RejectsZeroCes)
{
    machine::CedarConfig cfg;
    cfg.cluster.num_ces = 0;
    EXPECT_THROW(cfg.validate(), SimError);
}

TEST(ConfigValidation, RejectsZeroModules)
{
    machine::CedarConfig cfg;
    cfg.gm.num_modules = 0;
    EXPECT_THROW(cfg.validate(), SimError);
}

TEST(ConfigValidation, RejectsNonPowerOfTwoInterleave)
{
    machine::CedarConfig cfg;
    cfg.gm.num_modules = 24;
    try {
        cfg.validate();
        FAIL() << "validate accepted 24 modules";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::config);
        EXPECT_NE(std::string(e.what()).find("power of two"),
                  std::string::npos);
    }
}

TEST(ConfigValidation, RejectsDegenerateRadix)
{
    machine::CedarConfig cfg;
    cfg.gm.stage_radices = {32, 1};
    EXPECT_THROW(cfg.validate(), SimError);
}

TEST(ConfigValidation, RejectsEmptyPrefetchBuffer)
{
    machine::CedarConfig cfg;
    cfg.cluster.pfu.buffer_words = 0;
    EXPECT_THROW(cfg.validate(), SimError);
}

TEST(ConfigValidation, StandardMachineValidates)
{
    EXPECT_NO_THROW(machine::CedarConfig::standard().validate());
}

namespace {

void
expectConfigError(const machine::CedarConfig &cfg)
{
    try {
        cfg.validate();
        FAIL() << "validate accepted the config";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::config);
    }
}

} // namespace

// Power-of-two searches past 2^31 ports must not wrap to zero and
// spin; none of these configs is ever built.
TEST(ConfigValidation, PortCountSearchesTerminatePastTwoToThe31)
{
    auto cfg = machine::CedarConfig::scaled(300'000'000, "fattree");
    EXPECT_EQ(cfg.gm.num_ports, 2'400'000'000u);
    EXPECT_EQ(cfg.gm.num_modules, 1u << 31);
    expectConfigError(cfg); // not a power of 8, 4 or 2

    cfg = machine::CedarConfig::standard();
    cfg.gm.topology = "fattree";
    cfg.gm.num_ports = 3'000'000'000u;
    expectConfigError(cfg);
    cfg.gm.fat_tree_arity = 2;
    expectConfigError(cfg);
}

TEST(ConfigValidation, RejectsCeAndRadixProductsThatOverflow)
{
    // 600M clusters x 8 CEs wraps to 505,032,704, which scaled() also
    // gives the network, so only the overflow itself can be caught.
    expectConfigError(machine::CedarConfig::scaled(600'000'000));

    // 65536 x 65537 wraps to 65536 ports, matching 8192 clusters.
    machine::CedarConfig cfg;
    cfg.num_clusters = 8192;
    cfg.gm.num_ports = 65536;
    cfg.gm.stage_radices = {65536, 65537};
    expectConfigError(cfg);
}

// ------------------------------------------------------------- fault spec

TEST(FaultSpecParse, RoundTrips)
{
    FaultSpec spec = FaultSpec::parse(
        "seed=7,net=0.001,mem1=0.0001,mem2=1e-05,sync=0.002,ce=0.0005,"
        "module=5,retries=4");
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_DOUBLE_EQ(spec.net_corrupt_rate, 0.001);
    EXPECT_DOUBLE_EQ(spec.mem_double_bit_rate, 1e-5);
    EXPECT_EQ(spec.failed_module, 5);
    EXPECT_EQ(spec.net_retry_limit, 4u);
    FaultSpec again = FaultSpec::parse(spec.str());
    EXPECT_EQ(again.str(), spec.str());
}

TEST(FaultSpecParse, RejectsBadInput)
{
    EXPECT_THROW(FaultSpec::parse("net=2.0"), SimError);
    EXPECT_THROW(FaultSpec::parse("net=-0.1"), SimError);
    EXPECT_THROW(FaultSpec::parse("bogus=1"), SimError);
    EXPECT_THROW(FaultSpec::parse("net"), SimError);
}

TEST(FaultInjectorUnit, SameSeedSameDecisions)
{
    FaultSpec spec;
    spec.net_corrupt_rate = 0.3;
    spec.sync_timeout_rate = 0.2;
    FaultInjector a("a", spec);
    FaultInjector b("b", spec);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.corruptPacket(), b.corruptPacket());
        EXPECT_EQ(a.syncTimeout(), b.syncTimeout());
    }
    EXPECT_EQ(a.injectedTotal(), b.injectedTotal());
    EXPECT_GT(a.injectedTotal(), 0u);
}

TEST(FaultInjectorUnit, LanesAreIndependent)
{
    FaultSpec spec;
    spec.net_corrupt_rate = 0.5;
    spec.mem_single_bit_rate = 0.5;
    FaultInjector a("a", spec);
    FaultInjector b("b", spec);
    // Consult a's net lane more often than b's: the mem decision
    // sequences must be unaffected.
    for (int i = 0; i < 100; ++i)
        a.corruptPacket();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.memEccEvent(), b.memEccEvent());
}

// ----------------------------------------------------------- determinism

TEST(Determinism, SameSeedGivesIdenticalStatSnapshots)
{
    auto run = [] {
        machine::CedarMachine machine;
        FaultSpec spec;
        spec.net_corrupt_rate = 0.01;
        spec.mem_single_bit_rate = 0.01;
        spec.mem_double_bit_rate = 0.001;
        spec.sync_timeout_rate = 0.01;
        spec.ce_dropout_rate = 0.001;
        machine.injectFaults(spec);
        LoopRunner runner(machine);
        Addr data = machine.allocGlobal(256);
        runner.xdoall(runner.allCes(), 128, memoryBody(data));
        return machine.stats().snapshot();
    };
    auto first = run();
    auto second = run();
    EXPECT_EQ(first, second);
    EXPECT_GT(first.at("cedar.faults.net_corruptions"), 0.0);
}

// -------------------------------------------------- degraded-mode operation

TEST(DegradedMode, NetworkRetransmitsAndCompletes)
{
    machine::CedarMachine machine;
    FaultSpec spec;
    spec.net_corrupt_rate = 0.05;
    machine.injectFaults(spec);
    LoopRunner runner(machine);
    Addr data = machine.allocGlobal(256);
    IterationRecorder rec(96);
    Tick end = runner.xdoall(runner.allCes(), 96, [&](unsigned iter,
                                                      unsigned ce,
                                                      std::deque<cluster::Op> &out) {
        memoryBody(data)(iter, ce, out);
        rec.body(0)(iter, ce, out);
    });
    EXPECT_GT(end, 0u);
    EXPECT_GT(machine.gm().forwardNet().retransmits() +
                  machine.gm().reverseNet().retransmits(),
              0u);
}

TEST(DegradedMode, UnrecoverableCorruptionRaisesFaultError)
{
    machine::CedarMachine machine;
    FaultSpec spec;
    spec.net_corrupt_rate = 1.0; // every attempt corrupted
    spec.net_retry_limit = 3;
    machine.injectFaults(spec);
    Addr data = machine.allocGlobal(4);
    try {
        machine.gm().read(0, data, 0);
        FAIL() << "read survived 100% corruption";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::fault);
    }
}

TEST(DegradedMode, MemoryEccPenaltiesAreCharged)
{
    auto readLatency = [](double single, double dbl) {
        machine::CedarMachine machine;
        if (single > 0.0 || dbl > 0.0) {
            FaultSpec spec;
            spec.mem_single_bit_rate = single;
            spec.mem_double_bit_rate = dbl;
            machine.injectFaults(spec);
        }
        Addr data = machine.allocGlobal(64);
        Tick t = 0;
        for (unsigned i = 0; i < 64; ++i)
            t = machine.gm().read(0, data + i, t).data_at_port;
        return t;
    };
    Tick clean = readLatency(0.0, 0.0);
    Tick corrected = readLatency(1.0, 0.0); // every access single-bit
    Tick retried = readLatency(0.0, 1.0);   // every access double-bit
    EXPECT_GT(corrected, clean);
    EXPECT_GT(retried, corrected);
}

TEST(DegradedMode, FailedModuleRemapsToSpare)
{
    machine::CedarMachine machine;
    Addr data = machine.allocGlobal(64);
    // Populate before the failure: contents must survive the rebuild.
    for (unsigned i = 0; i < 64; ++i)
        machine.gm().pokeCell(data + i, static_cast<std::int32_t>(i));

    FaultSpec spec;
    spec.failed_module = 5;
    machine.injectFaults(spec);
    EXPECT_EQ(machine.gm().failedModule(), 5);

    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(machine.gm().peekCell(data + i),
                  static_cast<std::int32_t>(i));

    // Timed traffic for module 5 is served by the spare.
    std::uint64_t before = machine.gm().spareModule().accessCount();
    machine.gm().read(0, data + 5, 0);
    EXPECT_EQ(machine.gm().spareModule().accessCount(), before + 1);
    EXPECT_EQ(machine.gm().module(5).accessCount(), 0u);
}

TEST(DegradedMode, SyncTimeoutsAreRetriedAndLoopCompletes)
{
    machine::CedarMachine machine;
    FaultSpec spec;
    spec.sync_timeout_rate = 0.2;
    machine.injectFaults(spec);
    LoopRunner runner(machine);
    IterationRecorder rec(64);
    runner.xdoall(runner.allCes(), 64, rec.body());
    rec.expectAllOnce();
    EXPECT_GT(machine.runtimeStats().sync_retries.value(), 0u);
}

TEST(DegradedMode, LockProtocolSurvivesTimeouts)
{
    machine::CedarMachine machine;
    FaultSpec spec;
    spec.sync_timeout_rate = 0.1;
    machine.injectFaults(spec);
    RuntimeParams params;
    params.use_cedar_sync = false;
    LoopRunner runner(machine, params);
    IterationRecorder rec(40);
    runner.xdoall(runner.cesOfClusters(1), 40, rec.body());
    rec.expectAllOnce();
    EXPECT_GT(machine.runtimeStats().sync_retries.value(), 0u);
}

TEST(DegradedMode, XdoallSurvivesCeDropout)
{
    machine::CedarMachine machine;
    FaultSpec spec;
    spec.ce_dropout_rate = 0.05;
    machine.injectFaults(spec);
    LoopRunner runner(machine);
    IterationRecorder rec(192);
    Tick end = runner.xdoall(runner.allCes(), 192, rec.body());
    rec.expectAllOnce();
    EXPECT_GT(end, 0u);
    EXPECT_GT(machine.runtimeStats().dropped_ces.value(), 0u);
}

TEST(DegradedMode, CdoallSurvivesCeDropout)
{
    machine::CedarMachine machine;
    FaultSpec spec;
    spec.ce_dropout_rate = 0.1;
    machine.injectFaults(spec);
    LoopRunner runner(machine);
    IterationRecorder rec(96);
    runner.cdoall(0, 96, rec.body());
    rec.expectAllOnce();
    EXPECT_GT(machine.runtimeStats().dropped_ces.value(), 0u);
}

// -------------------------------------------------------------- watchdog

TEST(WatchdogTest, ConvertsDeadlockIntoTypedError)
{
    machine::CedarMachine machine;
    auto &cl = machine.clusterAt(0);
    // Two-participant barrier, one arrival: the queue drains with the
    // CE still waiting. Without the watchdog this was a silent hang.
    unsigned barrier = cl.newBarrier(2);
    runtime::ProgramStream stream(
        {cluster::Op::makeScalar(10), cluster::Op::makeBarrier(barrier)});
    cl.ce(0).run(&stream, nullptr);
    try {
        machine.sim().run();
        FAIL() << "deadlock went undetected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::deadlock);
        EXPECT_EQ(e.component(), "cedar.watchdog");
        // The diagnostic bundle names the stuck wait.
        EXPECT_NE(e.diagnostics().find("CCB barrier"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("1 component(s)"),
                  std::string::npos);
    }
}

TEST(WatchdogTest, ConvertsLivelockIntoTypedError)
{
    machine::CedarConfig cfg;
    cfg.watchdog.livelock_window = 10'000;
    cfg.watchdog.check_every_events = 16;
    machine::CedarMachine machine(cfg);
    // Self-rescheduling event that never marks progress: a spin loop
    // whose condition can never become true.
    test::LambdaEvent spin([&] { machine.sim().scheduleIn(spin, 5); });
    machine.sim().scheduleIn(spin, 5);
    try {
        machine.sim().run();
        FAIL() << "livelock went undetected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::livelock);
        EXPECT_GT(e.tick(), 10'000u);
    }
}

TEST(WatchdogTest, QuietOnHealthyRuns)
{
    machine::CedarMachine machine;
    LoopRunner runner(machine);
    IterationRecorder rec(64);
    EXPECT_NO_THROW(runner.cdoall(0, 64, rec.body()));
    EXPECT_EQ(machine.watchdog().pendingWaits(), 0u);
    EXPECT_GT(machine.watchdog().progressMarks(), 0u);
}
