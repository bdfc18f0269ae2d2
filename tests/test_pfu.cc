/**
 * @file
 * Focused PFU device-model coverage: the page-crossing suspension
 * protocol and the out-of-order-fill / in-order-consume contract of
 * the full/empty-bit buffer, and the restore checks that keep a
 * snapshot from arming a state no fire could produce. Complements
 * tests/test_prefetch.cc, which covers arm/fire basics, masking, and
 * reuse.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/globalmem.hh"
#include "prefetch/pfu.hh"
#include "sim/engine.hh"
#include "test_events.hh"
#include "test_snapshot.hh"

using namespace cedar;
using cedar::prefetch::PfuParams;
using cedar::prefetch::PrefetchUnit;
using cedar::test::CompletionLog;

namespace {

struct Fixture
{
    explicit Fixture(mem::GlobalMemoryParams gm_params = {},
                     PfuParams pfu_params = {})
        : gm("gm", gm_params), pfu("pfu", sim, gm, 0, pfu_params)
    {
    }

    Simulation sim;
    mem::GlobalMemory gm;
    PrefetchUnit pfu;
};

/** Recompute the documented consumption fold from raw arrivals. */
Tick
expectedConsumeTick(const PrefetchUnit &pfu, unsigned first,
                    unsigned count, Tick start)
{
    Tick t = start;
    for (unsigned i = first; i < first + count; ++i)
        t = std::max(t + 1, pfu.wordArrival(i) + pfu.params().drain_cycles);
    return t;
}

} // namespace

// ---------------------------------------------------------------------
// Page-crossing suspension
// ---------------------------------------------------------------------

TEST(PfuPageCrossing, CountsEveryBoundaryInTheBlock)
{
    Fixture f;
    // 512-word block starting 4 words before a page boundary with
    // stride 1 walks across exactly one boundary per 512 words: the
    // first at word 4, the second 512 words later — outside the block.
    f.pfu.fire(mem::globalAddr(mem::words_per_page - 4), 512, 1, 0);
    f.sim.run();
    ASSERT_TRUE(f.pfu.complete());
    EXPECT_EQ(f.pfu.pageCrossings(), 1u);

    // A page-sized stride crosses on every single issue after the
    // first: length-1 suspensions.
    Fixture g;
    g.pfu.fire(mem::globalAddr(0), 16, mem::words_per_page, 0);
    g.sim.run();
    ASSERT_TRUE(g.pfu.complete());
    EXPECT_EQ(g.pfu.pageCrossings(), 15u);
}

TEST(PfuPageCrossing, SuspensionAddsExactlyThePenalty)
{
    // In an uncontended memory, issue pacing is the only spacing
    // between consecutive arrivals, so the boundary word's arrival gap
    // is exactly issue_interval + page_cross_penalty.
    Fixture f;
    const PfuParams params; // defaults: interval 2, penalty 16
    f.pfu.fire(mem::globalAddr(mem::words_per_page - 2), 4, 1, 0);
    f.sim.run();
    ASSERT_TRUE(f.pfu.complete());
    EXPECT_EQ(f.pfu.pageCrossings(), 1u);
    EXPECT_EQ(f.pfu.wordArrival(1) - f.pfu.wordArrival(0),
              params.issue_interval);
    EXPECT_EQ(f.pfu.wordArrival(2) - f.pfu.wordArrival(1),
              params.issue_interval + params.page_cross_penalty);
    EXPECT_EQ(f.pfu.wordArrival(3) - f.pfu.wordArrival(2),
              params.issue_interval);
}

TEST(PfuPageCrossing, PenaltyIsConfigurable)
{
    PfuParams slow;
    slow.page_cross_penalty = 100;
    Fixture f({}, slow);
    f.pfu.fire(mem::globalAddr(mem::words_per_page - 1), 2, 1, 0);
    f.sim.run();
    EXPECT_EQ(f.pfu.pageCrossings(), 1u);
    EXPECT_EQ(f.pfu.wordArrival(1) - f.pfu.wordArrival(0),
              slow.issue_interval + slow.page_cross_penalty);
}

TEST(PfuPageCrossing, SuspensionDelaysInOrderConsumption)
{
    // The suspended word gates the stream: a consumption spanning the
    // boundary cannot finish before the post-boundary arrivals.
    Fixture f;
    f.pfu.fire(mem::globalAddr(mem::words_per_page - 8), 16, 1, 0);
    CompletionLog done;
    f.pfu.whenConsumed(0, 16, 0, done);
    f.sim.run();
    ASSERT_TRUE(f.pfu.complete());
    EXPECT_EQ(done.last(), expectedConsumeTick(f.pfu, 0, 16, 0));
    EXPECT_GE(done.last(), f.pfu.wordArrival(15) + PfuParams{}.drain_cycles);
}

// ---------------------------------------------------------------------
// Out-of-order fill, in-order consumption
//
// The reservation-timed network delivers one port's responses in issue
// order (every response to port 0 serializes through the same final
// reverse-network link, whose busy horizon only advances), so real
// congestion produces a late word plus a head-of-line-blocked suffix —
// never an inversion. The congestion tests below pin that delivery
// property and the consumption fold under it; the synthetic tests use
// the fireSynthetic() hook to drive the full/empty-bit fold with
// arrival orders the network model cannot produce.
// ---------------------------------------------------------------------

namespace {

/**
 * Congest the memory module serving word 16 of a unit-stride prefetch
 * with a burst of competing reads. The competing port (31) sits in a
 * different first-stage switch group than the PFU's port 0, so only
 * the module and the shared return path are contended; the prefetch
 * stays within max_outstanding (32) so network flow control never
 * stalls the issue stream.
 */
struct CongestedFixture : Fixture
{
    /** Word 16 of a unit-stride prefetch from offset 0 lands here. */
    static constexpr unsigned hot_word = 16;

    CongestedFixture()
    {
        // 64 back-to-back reads from port 31 pile onto module 16
        // before the PFU starts issuing at tick 0.
        for (int i = 0; i < 64; ++i)
            gm.read(31, mem::globalAddr(hot_word), 0);
    }
};

} // namespace

TEST(PfuOutOfOrder, PortDeliversResponsesInIssueOrder)
{
    CongestedFixture f;
    f.pfu.fire(mem::globalAddr(0), 32, 1, 0);
    f.sim.run();
    ASSERT_TRUE(f.pfu.complete());

    // The congested word arrives long after its predecessor...
    const unsigned hot = CongestedFixture::hot_word;
    EXPECT_GT(f.pfu.wordArrival(hot), f.pfu.wordArrival(hot - 1) + 100);
    // ...and head-of-line blocking at the shared return link makes the
    // suffix trail it at back-to-back word occupancy, keeping arrivals
    // sorted: per-port delivery is in issue order by construction.
    EXPECT_EQ(f.pfu.wordArrival(hot + 1), f.pfu.wordArrival(hot) + 1);
    std::vector<Tick> arrivals;
    for (unsigned i = 0; i < 32; ++i)
        arrivals.push_back(f.pfu.wordArrival(i));
    EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
}

TEST(PfuOutOfOrder, CongestedWordGatesTheConsumptionStream)
{
    CongestedFixture f;
    f.pfu.fire(mem::globalAddr(0), 32, 1, 0);
    CompletionLog done;
    f.pfu.whenConsumed(0, 32, 0, done);
    f.sim.run();
    ASSERT_TRUE(f.pfu.complete());

    // The completion tick is exactly the in-order fold over the raw
    // arrivals — each word drains one cycle after its predecessor but
    // never before it is present — so the late word gates every word
    // after it.
    EXPECT_EQ(done.last(), expectedConsumeTick(f.pfu, 0, 32, 0));
    const unsigned hot = CongestedFixture::hot_word;
    EXPECT_GE(done.last(), f.pfu.wordArrival(hot) + PfuParams{}.drain_cycles +
                        (31 - hot));
}

TEST(PfuOutOfOrder, PrefixConsumptionUnaffectedByCongestedSuffix)
{
    CongestedFixture f;
    f.pfu.fire(mem::globalAddr(0), 32, 1, 0);
    CompletionLog head_done, tail_done;
    // The tail [16, 32) starts at the congested word; the head query
    // [2, 8) covers only uncongested modules and answers early.
    f.pfu.whenConsumed(2, 6, 0, head_done);
    f.pfu.whenConsumed(16, 16, 0, tail_done);
    f.sim.run();
    EXPECT_EQ(head_done.last(), expectedConsumeTick(f.pfu, 2, 6, 0));
    EXPECT_EQ(tail_done.last(), expectedConsumeTick(f.pfu, 16, 16, 0));
    EXPECT_LT(head_done.last(), tail_done.last());
}

TEST(PfuOutOfOrder, SyntheticFillsConsumeInRequestOrder)
{
    // Word 1 arrives long after its neighbours: the full/empty bits
    // hold consumption at word 1 until it lands, then stream the rest
    // one per cycle.
    Fixture f;
    std::vector<Tick> arrivals{8, 200, 10, 12, 14, 16, 18, 20};
    f.pfu.fireSynthetic(arrivals);
    ASSERT_TRUE(f.pfu.complete());
    EXPECT_FALSE(std::is_sorted(arrivals.begin(), arrivals.end()));
    EXPECT_EQ(f.pfu.wordArrival(1), 200u);

    CompletionLog done;
    f.pfu.whenConsumed(0, 8, 0, done);
    f.sim.run();
    EXPECT_EQ(done.last(), expectedConsumeTick(f.pfu, 0, 8, 0));
    // The late word gates all six words behind it...
    EXPECT_EQ(done.last(), 200 + PfuParams{}.drain_cycles + 6);
}

TEST(PfuOutOfOrder, SyntheticSuffixBehindLateWordAnswersFirst)
{
    // A consumption that skips the late word entirely completes before
    // one that includes it — per-range independence of the fold.
    Fixture f;
    f.pfu.fireSynthetic({8, 200, 10, 12, 14, 16, 18, 20});
    CompletionLog head_done, tail_done;
    f.pfu.whenConsumed(0, 2, 0, head_done);
    f.pfu.whenConsumed(2, 6, 0, tail_done);
    f.sim.run();
    EXPECT_EQ(head_done.last(), expectedConsumeTick(f.pfu, 0, 2, 0));
    EXPECT_EQ(tail_done.last(), expectedConsumeTick(f.pfu, 2, 6, 0));
    EXPECT_LT(tail_done.last(), head_done.last());
}

TEST(PfuOutOfOrder, QueryBeforeArrivalAnswersAtArrivalNotBefore)
{
    Fixture f;
    f.pfu.fire(mem::globalAddr(0), 32, 1, 0);
    CompletionLog done;
    // Registered at tick 0, long before word 31 arrives at ~2*31+8.
    f.pfu.whenConsumed(31, 1, 0, done);
    f.sim.run();
    EXPECT_EQ(done.last(),
              f.pfu.wordArrival(31) + f.pfu.params().drain_cycles);
}

// ---------------------------------------------------------------------
// Checkpoint restore checks
// ---------------------------------------------------------------------

namespace {

/**
 * A PFU saved after a finished four-word prefetch: synthetic, or fired
 * through memory under @p mask.
 */
std::string
savedPfu(const std::vector<bool> &mask = {})
{
    Fixture f;
    if (mask.empty()) {
        f.pfu.fireSynthetic({10, 30, 20, 40});
    } else {
        f.pfu.fireMasked(mem::globalAddr(0), unsigned(mask.size()), 1,
                         mask, 0);
        f.sim.run();
    }
    CheckpointWriter w(0);
    f.pfu.saveState(w);
    return w.finish();
}

/** Restore @p snap into a fresh PFU and save it again. */
std::string
restoreAndSave(const std::string &snap)
{
    Fixture f;
    f.pfu.restoreState(CheckpointReader(snap));
    CheckpointWriter w(0);
    f.pfu.saveState(w);
    return w.finish();
}

std::string
ticks(std::size_t n)
{
    return std::string(n * 8, '\0');
}

void
expectRefused(const std::string &snap, const std::string &what)
{
    test::expectCheckpointError([&] { restoreAndSave(snap); }, what);
}

} // namespace

TEST(PfuCheckpoint, EveryArmingPathRestoresExactly)
{
    Fixture idle;
    CheckpointWriter w(0);
    idle.pfu.saveState(w);
    for (const std::string &snap :
         {w.finish(), savedPfu(), savedPfu({true, false, true, true})}) {
        EXPECT_EQ(restoreAndSave(snap), snap);
    }
}

// Length 2^20 once restored, after which canReuse(0, 4) said yes and
// wordArrival(100000) read past the four-tick arrival buffer.
TEST(PfuCheckpoint, RefusesALengthPastTheBuffer)
{
    std::string snap = savedPfu();
    expectRefused(test::withU64(snap, "pfu", "length", 1u << 20),
                  "length 2^20");
    unsigned words = PfuParams{}.buffer_words + 1;
    expectRefused(test::withBytes(test::withU64(snap, "pfu", "length", words),
                                  "pfu", "arrivals", ticks(words)),
                  "length one past the buffer, with its arrivals");
}

TEST(PfuCheckpoint, RefusesArrivalsThatDoNotMatchTheLength)
{
    std::string snap = savedPfu();
    for (std::size_t n : {0, 3, 5}) {
        expectRefused(test::withBytes(snap, "pfu", "arrivals", ticks(n)),
                      std::to_string(n) + " arrivals for 4 words");
    }
}

TEST(PfuCheckpoint, RefusesAMaskThatDoesNotMatchTheLength)
{
    std::string masked = savedPfu({true, false, true, true});
    for (std::size_t n : {1, 3, 5}) {
        expectRefused(test::withBytes(masked, "pfu", "mask",
                                      std::string(n, '\1')),
                      std::to_string(n) + "-byte mask for 4 words");
    }
    // An empty mask means every word is enabled, at any length.
    std::string unmasked = test::withBytes(masked, "pfu", "mask", "");
    EXPECT_EQ(restoreAndSave(unmasked), unmasked);
}

TEST(PfuCheckpoint, RefusesCountsPastTheLength)
{
    // Three of four words enabled: enabled_count and arrived are 3.
    std::string snap = savedPfu({true, false, true, true});
    for (const char *key : {"next_issue", "arrived", "enabled_count"}) {
        std::string at_length = test::withU64(snap, "pfu", key, 4);
        EXPECT_EQ(restoreAndSave(at_length), at_length) << key;
        expectRefused(test::withU64(snap, "pfu", key, 5),
                      std::string(key) + " 5 of 4 words");
    }
}

// 2^32 + 4 once narrowed silently to 4, which matches the arrivals.
TEST(PfuCheckpoint, RefusesValuesPastTheUnsignedRange)
{
    std::string snap = savedPfu();
    std::uint64_t wide = (std::uint64_t(1) << 32) + 4;
    for (const char *key :
         {"stride", "length", "next_issue", "arrived", "enabled_count"}) {
        expectRefused(test::withU64(snap, "pfu", key, wide),
                      std::string(key) + " 2^32 + 4");
    }
}
