/**
 * @file
 * Checkpoint/restore tests: container-format round-trips, typed
 * rejection of corrupt/truncated/version-skewed snapshots, quiescence
 * and configuration preconditions, and the bit-identity property — a
 * run restored at a randomized unit boundary finishes byte-identical
 * to an uninterrupted run — across three workload classes (prefetch
 * streams, cache + barriers, fault injection).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "kernels/rank64.hh"
#include "machine/cedar.hh"
#include "sim/checkpoint.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/random.hh"
#include "sim/telemetry.hh"
#include "test_events.hh"

using namespace cedar;

namespace {

template <typename Fn>
void
expectCheckpointError(Fn &&fn, const char *what)
{
    try {
        fn();
        FAIL() << what << ": expected a checkpoint SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::checkpoint)
            << what << ": " << e.what();
    }
}

/** A small synthetic snapshot exercising every field type. */
std::string
tinySnapshot()
{
    CheckpointWriter w(1234);
    auto &alpha = w.section("alpha");
    alpha.u64("answer", 42);
    alpha.i64("debt", -7);
    alpha.f64("pi", 3.25);
    alpha.str("tag", "hello world");
    alpha.bytes("blob", std::string("\x00\x01\xFF\x7F", 4));
    auto &beta = w.section("beta");
    beta.u64("one", 1);
    return w.finish();
}

/** Registry dump without the wall-clock-derived host scalars. */
std::string
strippedStats(machine::CedarMachine &m)
{
    std::istringstream in(m.stats().dumpText());
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.find(".host_") == std::string::npos) {
            out += line;
            out += '\n';
        }
    }
    return out;
}

/** One property-test workload class. */
struct Workload
{
    const char *name;
    kernels::Rank64Version version;
    unsigned clusters;
    const char *faults; // nullptr: no fault injection
};

const Workload property_workloads[] = {
    {"gm_prefetch", kernels::Rank64Version::gm_prefetch, 1, nullptr},
    {"gm_cache", kernels::Rank64Version::gm_cache, 2, nullptr},
    {"gm_nopref_faults", kernels::Rank64Version::gm_no_prefetch, 1,
     "seed=11,mem1=0.001,mem2=0.0001"},
};

double
runUnit(machine::CedarMachine &m, const Workload &w)
{
    kernels::Rank64Params p;
    p.n = 64;
    p.clusters = w.clusters;
    p.version = w.version;
    return kernels::runRank64(m, p).mflopsRate();
}

std::unique_ptr<machine::CedarMachine>
coldMachine(const Workload &w)
{
    auto m = std::make_unique<machine::CedarMachine>();
    if (w.faults)
        m->injectFaults(FaultSpec::parse(w.faults));
    return m;
}

} // namespace

// ------------------------------------------------------------ container

TEST(CheckpointFormat, FieldRoundTrip)
{
    CheckpointReader r(tinySnapshot());
    EXPECT_EQ(r.tick(), 1234u);
    const auto &alpha = r.section("alpha");
    EXPECT_EQ(alpha.u64("answer"), 42u);
    EXPECT_EQ(alpha.i64("debt"), -7);
    EXPECT_DOUBLE_EQ(alpha.f64("pi"), 3.25);
    EXPECT_EQ(alpha.str("tag"), "hello world");
    EXPECT_EQ(alpha.bytes("blob"), std::string("\x00\x01\xFF\x7F", 4));
    EXPECT_EQ(r.section("beta").u64("one"), 1u);
}

TEST(CheckpointFormat, RngAndStatRoundTrip)
{
    Rng rng(0xFEEDu);
    rng.next();
    rng.next();
    Rng::State saved = rng.state();

    Counter ctr;
    ctr.inc(17);
    SampleStat stat;
    stat.sample(1.0);
    stat.sample(5.0);

    CheckpointWriter w(9);
    auto &sec = w.section("s");
    sec.rng("rng", rng);
    sec.counter("ctr", ctr);
    sec.sample("stat", stat);
    std::string snap = w.finish();

    CheckpointReader r(snap);
    Rng rng2(1);
    Counter ctr2;
    SampleStat stat2;
    const auto &sec2 = r.section("s");
    sec2.rng("rng", rng2);
    sec2.counter("ctr", ctr2);
    sec2.sample("stat", stat2);

    EXPECT_EQ(rng2.state(), saved);
    EXPECT_EQ(rng2.next(), rng.next());
    EXPECT_EQ(ctr2.value(), 17u);
    EXPECT_EQ(stat2.count(), 2u);
    EXPECT_DOUBLE_EQ(stat2.mean(), 3.0);
    EXPECT_DOUBLE_EQ(stat2.min(), 1.0);
    EXPECT_DOUBLE_EQ(stat2.max(), 5.0);
}

TEST(CheckpointFormat, MissingSectionAndKeyRejected)
{
    CheckpointReader r(tinySnapshot());
    expectCheckpointError([&] { r.section("gamma"); },
                          "unknown section");
    expectCheckpointError([&] { r.section("alpha").u64("nope"); },
                          "unknown key");
    // Type confusion: "tag" is a string, not a number.
    expectCheckpointError([&] { r.section("alpha").u64("tag"); },
                          "tag type mismatch");
}

TEST(CheckpointFormat, TruncatedRejected)
{
    std::string snap = tinySnapshot();
    for (std::size_t len : {std::size_t(0), std::size_t(4),
                            snap.size() / 2, snap.size() - 1}) {
        expectCheckpointError(
            [&] { CheckpointReader r(snap.substr(0, len)); },
            "truncated snapshot");
    }
}

TEST(CheckpointFormat, CorruptByteRejected)
{
    std::string snap = tinySnapshot();
    for (std::size_t at : {std::size_t(0), std::size_t(9),
                           snap.size() / 2, snap.size() - 1}) {
        std::string bad = snap;
        bad[at] = char(bad[at] ^ 0x5A);
        expectCheckpointError([&] { CheckpointReader r(bad); },
                              "corrupt snapshot");
    }
}

TEST(CheckpointFormat, VersionSkewRejected)
{
    // Patch the schema word (right after the 8-byte magic) and repair
    // the trailing file CRC so only the version check can object.
    std::string bad = tinySnapshot();
    bad[8] = 99;
    std::uint32_t crc = crc32(bad.data(), bad.size() - 4);
    for (int i = 0; i < 4; ++i)
        bad[bad.size() - 4 + std::size_t(i)] =
            char((crc >> (8 * i)) & 0xFF);
    try {
        CheckpointReader r(bad);
        FAIL() << "schema v99 accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::checkpoint);
        EXPECT_NE(std::string(e.what()).find("schema"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CheckpointFormat, BadMagicRejected)
{
    std::string bad = tinySnapshot();
    bad[0] = 'X';
    expectCheckpointError([&] { CheckpointReader r(bad); },
                          "bad magic");
}

TEST(CheckpointFormat, ManifestDescribesSections)
{
    std::string text = describeCheckpoint(tinySnapshot());
    EXPECT_NE(text.find("schema:   v1"), std::string::npos) << text;
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("beta"), std::string::npos);
}

TEST(CheckpointFormat, FileRoundTrip)
{
    std::string path = testing::TempDir() + "cedar_ckpt_test.ckpt";
    std::string snap = tinySnapshot();
    writeCheckpointFile(path, snap);
    EXPECT_EQ(readCheckpointFile(path), snap);
    std::remove(path.c_str());
    expectCheckpointError([&] { readCheckpointFile(path); },
                          "missing file");
}

// --------------------------------------------------------- preconditions

TEST(CheckpointMachine, RefusesNonQuiescentSave)
{
    machine::CedarMachine m;
    test::LambdaEvent pending([] {});
    m.sim().schedule(pending, 100);
    expectCheckpointError([&] { m.saveCheckpoint(); },
                          "pending events");
}

TEST(CheckpointMachine, RefusesConfigMismatch)
{
    machine::CedarMachine m;
    std::string snap = m.saveCheckpoint();

    machine::CedarConfig tweaked = machine::CedarConfig::standard();
    tweaked.gm.module_access_cycles += Cycles(1);
    machine::CedarMachine other(tweaked);
    expectCheckpointError([&] { other.restoreCheckpoint(snap); },
                          "config fingerprint mismatch");
}

TEST(CheckpointMachine, RefusesTelemetryAsymmetry)
{
    machine::CedarMachine plain;
    std::string no_telemetry = plain.saveCheckpoint();

    RingTelemetrySink sink;
    machine::CedarMachine armed;
    TelemetryParams params;
    params.interval = 10'000;
    armed.enableTelemetry(params, sink);
    expectCheckpointError([&] { armed.restoreCheckpoint(no_telemetry); },
                          "snapshot without telemetry into armed machine");

    Workload w{"t", kernels::Rank64Version::gm_prefetch, 1, nullptr};
    runUnit(armed, w);
    std::string with_telemetry = armed.saveCheckpoint();
    machine::CedarMachine bare;
    expectCheckpointError(
        [&] { bare.restoreCheckpoint(with_telemetry); },
        "telemetry snapshot into bare machine");
}

TEST(CheckpointMachine, RefusesFaultAsymmetry)
{
    machine::CedarMachine plain;
    std::string snap = plain.saveCheckpoint();

    machine::CedarMachine armed;
    armed.injectFaults(FaultSpec::parse("seed=3,mem1=0.01"));
    expectCheckpointError([&] { armed.restoreCheckpoint(snap); },
                          "fault-free snapshot into armed machine");
}

// ----------------------------------------------------------- round trips

TEST(CheckpointMachine, SaveRestoreSaveIsByteIdentical)
{
    Workload w{"rt", kernels::Rank64Version::gm_prefetch, 2, nullptr};
    auto m = coldMachine(w);
    runUnit(*m, w);
    std::string snap = m->saveCheckpoint();

    machine::CedarMachine restored;
    restored.restoreCheckpoint(snap);
    EXPECT_EQ(restored.saveCheckpoint(), snap);
}

TEST(CheckpointMachine, FaultInjectionAutoArmsOnRestore)
{
    Workload w{"f", kernels::Rank64Version::gm_no_prefetch, 1,
               "seed=11,mem1=0.001,mem2=0.0001"};
    auto m = coldMachine(w);
    runUnit(*m, w);
    std::string snap = m->saveCheckpoint();

    machine::CedarMachine restored;
    ASSERT_EQ(restored.faults(), nullptr);
    restored.restoreCheckpoint(snap);
    ASSERT_NE(restored.faults(), nullptr);
    EXPECT_EQ(restored.saveCheckpoint(), snap);
}

TEST(CheckpointMachine, TelemetryContinuesBitIdentically)
{
    TelemetryParams params;
    params.interval = 25'000;
    Workload w{"t", kernels::Rank64Version::gm_prefetch, 1, nullptr};

    // Uninterrupted: unit 0, checkpoint in passing, unit 1.
    RingTelemetrySink sink_a;
    machine::CedarMachine a;
    a.enableTelemetry(params, sink_a);
    runUnit(a, w);
    std::string snap = a.saveCheckpoint();
    a.telemetry()->resume();
    runUnit(a, w);

    // Restored twin: arm an identical sampler, restore, resume.
    RingTelemetrySink sink_b;
    machine::CedarMachine b;
    b.enableTelemetry(params, sink_b);
    b.restoreCheckpoint(snap);
    b.telemetry()->resume();
    runUnit(b, w);

    EXPECT_EQ(strippedStats(b), strippedStats(a));
    EXPECT_EQ(b.telemetry()->records(), a.telemetry()->records());
}

// -------------------------------------------------------- property test

TEST(CheckpointProperty, RandomSplitBitIdentity)
{
    constexpr unsigned total_units = 4;
    Rng rng(0xC4EC6B0BULL);
    for (const Workload &w : property_workloads) {
        std::string reference;
        {
            auto m = coldMachine(w);
            for (unsigned u = 0; u < total_units; ++u)
                runUnit(*m, w);
            reference = strippedStats(*m);
        }
        for (int trial = 0; trial < 2; ++trial) {
            unsigned split = 1 + unsigned(rng.below(total_units - 1));
            SCOPED_TRACE(std::string(w.name) +
                         " split=" + std::to_string(split));
            auto m = coldMachine(w);
            for (unsigned u = 0; u < split; ++u)
                runUnit(*m, w);
            std::string snap = m->saveCheckpoint();

            // Restore into a *fresh* machine (faults re-arm from the
            // snapshot itself) and finish the workload there.
            machine::CedarMachine resumed;
            resumed.restoreCheckpoint(snap);
            EXPECT_EQ(resumed.saveCheckpoint(), snap);
            for (unsigned u = split; u < total_units; ++u)
                runUnit(resumed, w);
            EXPECT_EQ(strippedStats(resumed), reference);
        }
    }
}
