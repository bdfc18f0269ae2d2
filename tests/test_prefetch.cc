/**
 * @file
 * Prefetch unit tests: arm/fire, paced issue, full/empty-bit
 * consumption ordering, page-crossing suspension, buffer invalidation,
 * flow control, and the Table 2 latency statistics.
 */

#include <gtest/gtest.h>

#include "mem/globalmem.hh"
#include "prefetch/pfu.hh"
#include "sim/engine.hh"
#include "test_events.hh"

using namespace cedar;
using cedar::prefetch::PfuParams;
using cedar::prefetch::PrefetchUnit;
using cedar::test::CompletionLog;

namespace {

struct PfuFixture : public ::testing::Test
{
    PfuFixture()
        : gm("gm", mem::GlobalMemoryParams{}),
          pfu("pfu", sim, gm, 0, PfuParams{})
    {
    }

    Simulation sim;
    mem::GlobalMemory gm;
    PrefetchUnit pfu;
};

} // namespace

TEST_F(PfuFixture, UncontendedLatencyIsEightCycles)
{
    pfu.fire(mem::globalAddr(64), 32, 1, 0);
    sim.run();
    ASSERT_TRUE(pfu.complete());
    // network+module 6 + buffer fill 2.
    EXPECT_DOUBLE_EQ(pfu.latencyStat().min(), 8.0);
    EXPECT_NEAR(pfu.latencyStat().mean(), 8.0, 1.0);
}

TEST_F(PfuFixture, IssuesPacedByInterval)
{
    pfu.fire(mem::globalAddr(0), 16, 1, 100);
    sim.run();
    EXPECT_EQ(pfu.requestsIssued(), 16u);
    // Last issue at 100 + 15*2; last arrival 8 cycles later.
    EXPECT_EQ(pfu.wordArrival(15), 100 + 30 + 8u);
}

TEST_F(PfuFixture, ArrivalsTrackStride)
{
    pfu.fire(mem::globalAddr(0), 8, 4, 0);
    sim.run();
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_NE(pfu.wordArrival(i), max_tick);
}

TEST_F(PfuFixture, WhenConsumedStreamsInOrder)
{
    pfu.fire(mem::globalAddr(0), 32, 1, 0);
    CompletionLog done;
    pfu.whenConsumed(0, 32, 0, done);
    sim.run();
    // Consumption is gated by the full/empty bits: at the 2-cycle issue
    // pace, the last word arrives around 2*31 + 8, and draining adds a
    // cycle.
    EXPECT_GE(done.last(), 2 * 31 + 8u);
    EXPECT_LE(done.last(), 2 * 31 + 8 + 8u);
}

TEST_F(PfuFixture, ConsumptionNeverPrecedesArrival)
{
    pfu.fire(mem::globalAddr(0), 64, 1, 0);
    CompletionLog done;
    pfu.whenConsumed(48, 16, 0, done);
    sim.run();
    EXPECT_GE(done.last(), pfu.wordArrival(63));
}

TEST_F(PfuFixture, PartialConsumptionAnswersEarly)
{
    pfu.fire(mem::globalAddr(0), 512, 1, 0);
    CompletionLog first_done;
    pfu.whenConsumed(0, 8, 0, first_done);
    sim.run();
    // The first 8 words are consumable long before the whole block.
    EXPECT_LT(first_done.last(), pfu.wordArrival(511));
}

TEST_F(PfuFixture, PageCrossingSuspendsIssue)
{
    // Start near the end of a 512-word page.
    Addr start = mem::globalAddr(mem::words_per_page - 4);
    pfu.fire(start, 8, 1, 0);
    sim.run();
    EXPECT_EQ(pfu.pageCrossings(), 1u);
    // The fifth word crosses the boundary: its issue stalls by the
    // page-cross penalty.
    Tick gap = pfu.wordArrival(4) - pfu.wordArrival(3);
    EXPECT_GE(gap, PfuParams{}.page_cross_penalty);
}

TEST_F(PfuFixture, RefireInvalidatesBuffer)
{
    pfu.fire(mem::globalAddr(0), 4, 1, 0);
    sim.run();
    Tick old_arrival = pfu.wordArrival(0);
    pfu.fire(mem::globalAddr(4096), 4, 1, sim.curTick());
    EXPECT_EQ(pfu.wordArrival(0), max_tick); // invalidated
    sim.run();
    EXPECT_GT(pfu.wordArrival(0), old_arrival);
}

TEST_F(PfuFixture, RejectsOversizePrefetch)
{
    EXPECT_THROW(pfu.fire(mem::globalAddr(0), 513, 1, 0),
                 std::logic_error);
    EXPECT_THROW(pfu.fire(123, 4, 1, 0), std::logic_error); // not global
}

TEST_F(PfuFixture, InterarrivalStatisticsPopulated)
{
    pfu.fire(mem::globalAddr(0), 256, 1, 0);
    sim.run();
    EXPECT_EQ(pfu.interarrivalStat().count(), 255u);
    // Unloaded, arrivals follow the 2-cycle issue pacing.
    EXPECT_NEAR(pfu.interarrivalStat().mean(), 2.0, 0.3);
}

TEST(PfuFlowControl, OutstandingWindowThrottlesIssue)
{
    Simulation sim;
    // A tiny memory with one module makes every request serialize, so
    // arrivals lag far behind the issue pace and the window must bind.
    mem::GlobalMemoryParams params;
    params.num_modules = 1;
    mem::GlobalMemory gm("gm", params);
    PfuParams pfu_params;
    pfu_params.max_outstanding = 4;
    PrefetchUnit pfu("pfu", sim, gm, 0, pfu_params);
    pfu.fire(mem::globalAddr(0), 64, 1, 0);
    sim.run();
    ASSERT_TRUE(pfu.complete());
    // With a window of 4 and a module that serves one request per
    // 2(+2) cycles, latency stays bounded near window * service time.
    EXPECT_LT(pfu.latencyStat().max(), 4 * 6 + 30.0);
}

TEST(PfuStats, ResetClearsEverything)
{
    Simulation sim;
    mem::GlobalMemory gm("gm", mem::GlobalMemoryParams{});
    PrefetchUnit pfu("pfu", sim, gm, 0, PfuParams{});
    pfu.fire(mem::globalAddr(0), 32, 1, 0);
    sim.run();
    EXPECT_GT(pfu.requestsIssued(), 0u);
    pfu.resetStats();
    EXPECT_EQ(pfu.requestsIssued(), 0u);
    EXPECT_EQ(pfu.latencyStat().count(), 0u);
}

// ---------------------------------------------------------------------
// Masked prefetch and buffer reuse (paper: the PFU is armed with
// length, stride, AND mask; prefetched data can be reused in place)
// ---------------------------------------------------------------------

TEST_F(PfuFixture, MaskedFireSkipsDisabledElements)
{
    std::vector<bool> mask(16, true);
    mask[3] = mask[7] = mask[8] = false;
    pfu.fireMasked(mem::globalAddr(0), 16, 1, mask, 0);
    sim.run();
    EXPECT_TRUE(pfu.complete());
    EXPECT_EQ(pfu.requestsIssued(), 13u);
    EXPECT_EQ(pfu.wordArrival(3), max_tick);   // never fetched
    EXPECT_NE(pfu.wordArrival(4), max_tick);
}

TEST_F(PfuFixture, MaskedConsumptionSkipsHoles)
{
    std::vector<bool> mask(8, true);
    mask[2] = false;
    pfu.fireMasked(mem::globalAddr(0), 8, 1, mask, 0);
    CompletionLog done;
    pfu.whenConsumed(0, 8, 0, done);
    sim.run();
    EXPECT_GT(done.last(), 0u);
    EXPECT_GE(done.last(), pfu.wordArrival(7));
}

TEST_F(PfuFixture, FullyMaskedPrefetchIssuesNothing)
{
    std::vector<bool> mask(8, false);
    pfu.fireMasked(mem::globalAddr(0), 8, 1, mask, 0);
    sim.run();
    EXPECT_EQ(pfu.requestsIssued(), 0u);
    EXPECT_TRUE(pfu.complete());
}

TEST_F(PfuFixture, MaskSizeMustMatchLength)
{
    std::vector<bool> mask(4, true);
    EXPECT_THROW(pfu.fireMasked(mem::globalAddr(0), 8, 1, mask, 0),
                 std::logic_error);
}

TEST_F(PfuFixture, BufferReuseAvoidsRefetch)
{
    pfu.fire(mem::globalAddr(0), 64, 1, 0);
    sim.run();
    std::uint64_t requests = pfu.requestsIssued();
    ASSERT_TRUE(pfu.canReuse(16, 32));
    EXPECT_FALSE(pfu.canReuse(32, 64)); // beyond the block
    CompletionLog done;
    pfu.whenConsumed(16, 32, sim.curTick(), done);
    sim.run();
    EXPECT_GT(done.last(), 0u);
    EXPECT_EQ(pfu.requestsIssued(), requests); // no new traffic
}

TEST_F(PfuFixture, ReuseDeniedAcrossMaskHoles)
{
    std::vector<bool> mask(16, true);
    mask[5] = false;
    pfu.fireMasked(mem::globalAddr(0), 16, 1, mask, 0);
    sim.run();
    EXPECT_TRUE(pfu.canReuse(0, 4));
    EXPECT_FALSE(pfu.canReuse(4, 4)); // covers the hole
}
