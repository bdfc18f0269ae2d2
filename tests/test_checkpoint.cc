/**
 * @file
 * Checkpoint/restore tests: the CRC-32 against its bitwise definition,
 * container-format round-trips, typed rejection of corrupt, truncated,
 * version-skewed and mutated snapshots, cluster barrier tables and
 * watchdog tokens that no run can produce, quiescence and configuration
 * preconditions, and the bit-identity property — a run restored at a
 * randomized unit boundary finishes byte-identical to an uninterrupted
 * run — across three workload classes (prefetch streams, cache +
 * barriers, fault injection).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "kernels/rank64.hh"
#include "machine/cedar.hh"
#include "runtime/loops.hh"
#include "sim/checkpoint.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/random.hh"
#include "sim/telemetry.hh"
#include "test_events.hh"
#include "test_snapshot.hh"

using namespace cedar;

namespace {

using test::expectCheckpointError;

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

/** The CRC-32 definition, a byte at a time and a bit at a time. */
std::uint32_t
bitwiseCrc32(const unsigned char *p, std::size_t len)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
    }
    return ~c;
}

/** Bytes before the first section: magic, schema, tick, count. */
constexpr std::size_t file_header = 24;

std::uint64_t
loadLE(const std::string &s, std::size_t at, int n)
{
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
        v |= std::uint64_t(static_cast<unsigned char>(s[at + i])) << (8 * i);
    return v;
}

void
storeLE(std::string &s, std::size_t at, std::uint64_t v, int n)
{
    for (int i = 0; i < n; ++i)
        s[at + i] = static_cast<char>(v >> (8 * i));
}

/** Recompute the trailing file CRC over everything before it. */
void
resealFile(std::string &s)
{
    storeLE(s, s.size() - 4, crc32(s.data(), s.size() - 4), 4);
}

/**
 * Recompute the body CRC of the section record at @p begin, framed by
 * its own (possibly damaged) name and body lengths, when that body
 * lies inside the snapshot.
 */
void
resealSection(std::string &s, std::size_t begin)
{
    std::size_t limit = s.size() - 4;
    if (limit < begin + 2)
        return;
    std::size_t crc_at = begin + 2 + loadLE(s, begin, 2);
    if (limit < crc_at + 12)
        return;
    std::size_t body_at = crc_at + 12;
    std::uint64_t len = loadLE(s, crc_at + 4, 8);
    if (len <= limit - body_at)
        storeLE(s, crc_at, crc32(s.data() + body_at, len), 4);
}

/** The section records (header and body) of a valid snapshot. */
std::vector<std::string>
sectionRecords(const std::string &snap)
{
    std::vector<std::string> records;
    std::size_t at = file_header;
    for (std::uint64_t i = 0, n = loadLE(snap, 20, 4); i < n; ++i) {
        std::size_t body_at = at + 2 + loadLE(snap, at, 2) + 12;
        std::size_t end = body_at + loadLE(snap, body_at - 8, 8);
        records.push_back(snap.substr(at, end - at));
        at = end;
    }
    return records;
}

} // namespace

// ------------------------------------------------------------------ CRC

TEST(CheckpointCrc, KnownAnswers)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

// Slicing-by-8 folds eight bytes per step and finishes byte by byte:
// every tail length and every misaligned start must agree with the
// definition.
TEST(CheckpointCrc, MatchesTheBitwiseDefinitionAtEveryLengthAndOffset)
{
    Rng rng(0xC4C32u);
    unsigned char buf[64 + 8];
    for (auto &b : buf)
        b = static_cast<unsigned char>(rng.next());
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 64; ++len) {
            EXPECT_EQ(crc32(buf + off, len), bitwiseCrc32(buf + off, len))
                << "offset " << off << ", length " << len;
        }
    }
}

TEST(CheckpointCrc, SeedChainsAcrossAnySplit)
{
    Rng rng(0x5EEDu);
    std::string data(300, '\0');
    for (char &c : data)
        c = static_cast<char>(rng.next());
    std::uint32_t whole = crc32(data.data(), data.size());
    for (std::size_t cut = 0; cut <= data.size(); ++cut) {
        std::uint32_t head = crc32(data.data(), cut);
        EXPECT_EQ(crc32(data.data() + cut, data.size() - cut, head), whole)
            << "split at " << cut;
    }
}

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

// A body length near 2^64 once wrapped the bounds check's pos + n and
// escaped as std::length_error; read in place, it would have read past
// the snapshot.
TEST(CheckpointFormat, HugeSectionLengthRejected)
{
    machine::CedarMachine m;
    std::string snap = m.saveCheckpoint();
    std::size_t len_at = file_header + 2 + loadLE(snap, file_header, 2) + 4;
    for (std::uint64_t len :
         {~std::uint64_t(0) - 7, ~std::uint64_t(0), std::uint64_t(1) << 63}) {
        std::string bad = snap;
        storeLE(bad, len_at, len, 8);
        resealFile(bad);
        expectCheckpointError([&] { CheckpointReader r(bad); },
                              "body length " + std::to_string(len));
    }
    std::string bad = snap;
    storeLE(bad, len_at, ~std::uint64_t(0) - 7, 8);
    resealFile(bad);
    machine::CedarMachine other;
    expectCheckpointError([&] { other.restoreCheckpoint(bad); },
                          "machine restore of a 2^64 - 8 body length");
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

    EXPECT_EQ(b.stats().dumpText(), a.stats().dumpText());
    EXPECT_EQ(b.telemetry()->records(), a.telemetry()->records());
}

// ---------------------------------------------- field-level restore checks

namespace {

/** A standard machine after two cdoall launches: cedar.cluster0 holds
 *  barriers 0 and 1 over its eight CEs, and next_barrier_id is 2. */
std::string
twoBarrierSnapshot()
{
    machine::CedarMachine m;
    runtime::LoopRunner runner(m);
    auto body = [](unsigned, unsigned, std::deque<cluster::Op> &out) {
        out.push_back(cluster::Op::makeScalar(Cycles(1)));
    };
    runner.cdoall(0, 8, body);
    runner.cdoall(0, 8, body);
    return m.saveCheckpoint();
}

/** Restore @p snap into a fresh standard machine and save it again. */
std::string
restoreAndSave(const std::string &snap)
{
    machine::CedarMachine m;
    m.restoreCheckpoint(snap);
    return m.saveCheckpoint();
}

/** @p snap with @p section's @p key set to @p v must be refused. */
void
expectRefused(const std::string &snap, const std::string &section,
              const std::string &key, std::uint64_t v)
{
    std::string bad = test::withU64(snap, section, key, v);
    expectCheckpointError([&] { restoreAndSave(bad); },
                          section + " " + key + " = " + std::to_string(v));
}

const std::uint64_t two_to_32 = std::uint64_t(1) << 32;

} // namespace

TEST(ClusterCheckpoint, BarrierTableRestoresByteIdentically)
{
    // Both barriers span all eight CEs, the upper participant limit.
    std::string snap = twoBarrierSnapshot();
    EXPECT_EQ(restoreAndSave(snap), snap);
    // One participant is legal, and so are ids that skip some of those
    // below next_barrier_id.
    std::string one = test::withU64(snap, "cedar.cluster0",
                                    "barrier0.participants", 1);
    EXPECT_EQ(restoreAndSave(one), one);
    std::string gap = test::withU64(
        test::withU64(snap, "cedar.cluster0", "next_barrier_id", 5),
        "cedar.cluster0", "barrier1.id", 4);
    EXPECT_EQ(restoreAndSave(gap), gap);
}

// Zero once tripped the barrier's own sim_assert (Kind::assertion), and
// 1000 restored a barrier that could never release.
TEST(ClusterCheckpoint, RefusesParticipantsOutsideTheCluster)
{
    std::string snap = twoBarrierSnapshot();
    for (std::uint64_t v : {0, 9, 1000})
        expectRefused(snap, "cedar.cluster0", "barrier0.participants", v);
}

// Each of these once narrowed silently: 2^32 + 8 participants restored
// as 8, and id 2^32 wrapped onto id 0, so emplace dropped the barrier.
TEST(ClusterCheckpoint, RefusesValuesPastTheUnsignedRange)
{
    std::string snap = twoBarrierSnapshot();
    expectRefused(snap, "cedar.cluster0", "barrier0.participants",
                  two_to_32 + 8);
    expectRefused(snap, "cedar.cluster0", "barrier1.id", two_to_32);
    expectRefused(snap, "cedar.cluster0", "next_barrier_id", two_to_32);
}

// With id 2 restored beside next_barrier_id 2, the next newBarrier()
// would have reused a live id.
TEST(ClusterCheckpoint, RefusesAnIdAtOrPastNextBarrierId)
{
    std::string snap = twoBarrierSnapshot();
    expectRefused(snap, "cedar.cluster0", "barrier1.id", 2);
    expectRefused(snap, "cedar.cluster0", "barrier0.id", 7);
}

TEST(ClusterCheckpoint, RefusesADuplicateId)
{
    expectRefused(twoBarrierSnapshot(), "cedar.cluster0", "barrier1.id", 0);
}

// next_barrier_id 0 once restored silently beside two live barriers,
// and the next newBarrier() reused id 0.
TEST(ClusterCheckpoint, RefusesMoreBarriersThanIds)
{
    std::string snap = twoBarrierSnapshot();
    expectRefused(snap, "cedar.cluster0", "next_barrier_id", 0);
    expectRefused(snap, "cedar.cluster0", "next_barrier_id", 1);
    expectRefused(snap, "cedar.cluster0", "barrier_count", 3);
}

// 2^32 + 1 once narrowed silently to token 1.
TEST(WatchdogCheckpoint, RefusesATokenPastTheUnsignedRange)
{
    std::string snap = twoBarrierSnapshot();
    std::string top =
        test::withU64(snap, "cedar.watchdog", "next_token", two_to_32 - 1);
    EXPECT_EQ(restoreAndSave(top), top);
    expectRefused(snap, "cedar.watchdog", "next_token", two_to_32 + 1);
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
            reference = m->stats().dumpText();
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
            EXPECT_EQ(resumed.stats().dumpText(), reference);
        }
    }
}

// Byte-level damage to a real standard-machine snapshot: flips in the
// file and section headers and in section bodies, truncations, and
// sections spliced in from a second snapshot. Each case is resealed —
// the touched section's CRC and the file CRC recomputed — so the damage
// reaches the decoder. The reader must construct or throw a typed
// `checkpoint` error; nothing else may escape.
TEST(CheckpointProperty, MutatedSnapshotsConstructOrFailTyped)
{
    machine::CedarMachine fresh;
    std::string base = fresh.saveCheckpoint();
    machine::CedarMachine ran;
    kernels::Rank64Params p;
    p.n = 32;
    p.rank = 32;
    kernels::runRank64(ran, p);
    std::string donor_snap = ran.saveCheckpoint();

    const std::vector<std::string> records = sectionRecords(base);
    const std::vector<std::string> donor = sectionRecords(donor_snap);

    // Most cases damage a window of a few consecutive sections framed
    // under the snapshot's own header: four 279 KB cache tag stores are
    // nine tenths of the bytes, and an unoptimized build cannot CRC and
    // parse 1.2 MB thousands of times in seconds. Every 50th case
    // damages the whole snapshot.
    auto frame = [&](std::size_t first, std::size_t count,
                     std::vector<std::size_t> &begins) {
        std::string s = base.substr(0, file_header);
        storeLE(s, 20, count, 4);
        begins.clear();
        for (std::size_t i = first; i < first + count; ++i) {
            begins.push_back(s.size());
            s += records[i];
        }
        s.append(4, '\0');
        resealFile(s);
        return s;
    };
    std::vector<std::size_t> begins;
    ASSERT_EQ(frame(0, records.size(), begins), base);

    constexpr unsigned cases = 2400;
    enum Damage { body_flip, header_flip, truncation, splice, damages };
    const char *damage_names[] = {"body flip", "header flip",
                                  "truncation", "splice"};
    unsigned constructed[damages] = {}, rejected[damages] = {};
    Rng rng(0xF022u);
    for (unsigned c = 0; c < cases; ++c) {
        std::size_t first = 0, count = records.size();
        if (c % 50 != 0) {
            first = rng.below(records.size());
            count = std::min<std::size_t>(1 + rng.below(6),
                                          records.size() - first);
            std::size_t bytes = 0;
            for (std::size_t i = first; i < first + count; ++i)
                bytes += records[i].size();
            if (bytes > 64 * 1024)
                count = 1;
        }
        std::string s = frame(first, count, begins);
        std::size_t r = rng.below(count);
        std::size_t begin = begins[r];
        const std::string &rec = records[first + r];
        std::size_t crc_at = begin + 2 + loadLE(rec, 0, 2);
        std::size_t body_at = crc_at + 12;
        std::size_t body_len = rec.size() - (body_at - begin);

        auto damage = static_cast<Damage>(rng.below(damages));
        switch (damage) {
          case body_flip:
            // Half the flips land in the first field headers, where
            // tags and lengths live.
            for (unsigned f = 0, n = 1 + unsigned(rng.below(3)); f < n;
                 ++f) {
                std::size_t span = rng.below(2)
                                       ? body_len
                                       : std::min<std::size_t>(body_len,
                                                               48);
                s[body_at + rng.below(span)] ^=
                    static_cast<char>(1 + rng.below(255));
            }
            resealSection(s, begin);
            break;
          case header_flip: {
            // The file header, or a name length, name or body length
            // (not the body CRC, which resealing would restore).
            std::size_t at;
            if (rng.below(4) == 0) {
                at = 8 + rng.below(file_header - 8);
            } else {
                std::size_t k = rng.below(body_at - begin - 4);
                at = begin + k + (begin + k >= crc_at ? 4 : 0);
            }
            s[at] ^= static_cast<char>(1u << rng.below(8));
            resealSection(s, begin);
            break;
          }
          case truncation: {
            std::size_t keep = rng.below(2)
                                   ? rng.below(s.size() - 3)
                                   : std::min(s.size() - 4,
                                              begin + rng.below(32));
            s.resize(keep);
            s.append(4, '\0');
            break;
          }
          case splice:
            s.replace(begin, rec.size(), donor[rng.below(donor.size())]);
            break;
          case damages:
            break;
        }
        resealFile(s);

        try {
            CheckpointReader reader(s);
            ++constructed[damage];
        } catch (const SimError &e) {
            ++rejected[damage];
            ASSERT_EQ(e.kind(), SimError::Kind::checkpoint)
                << damage_names[damage] << " case " << c << ": "
                << e.what();
            if (damage == body_flip) {
                EXPECT_EQ(std::string(e.what()).find("CRC"),
                          std::string::npos)
                    << "case " << c << " stopped at a CRC: " << e.what();
            }
        } catch (const std::exception &e) {
            FAIL() << damage_names[damage] << " case " << c
                   << " escaped untyped: " << e.what();
        }
    }
    for (int k = 0; k < damages; ++k) {
        SCOPED_TRACE(damage_names[k]);
        EXPECT_GT(rejected[k], 0u);
    }
    // Splicing a section over itself, or a flip in the tick or in a
    // value, still decodes: some cases must get through.
    EXPECT_GT(constructed[splice] + constructed[body_flip] +
                  constructed[header_flip],
              0u);
}
