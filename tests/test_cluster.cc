/**
 * @file
 * Cluster tests: fluid bandwidth resources, the shared cache (tags,
 * LRU, write-back, miss pipelining), cluster memory, the concurrency
 * control bus, and the CE state machine's timing behaviour.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "runtime/streams.hh"
#include "test_events.hh"

using namespace cedar;
using namespace cedar::cluster;
using cedar::test::CompletionLog;

// ---------------------------------------------------------------------
// FluidResource
// ---------------------------------------------------------------------

TEST(Fluid, DeliversCapacityWordsPerCycle)
{
    FluidResource res(8);
    EXPECT_EQ(res.acquire(0, 16), 2u);
    EXPECT_EQ(res.acquire(2, 8), 3u);
}

TEST(Fluid, ConcurrentConsumersShareTheRate)
{
    FluidResource res(4);
    Tick a = res.acquire(0, 32); // 8 cycles
    Tick b = res.acquire(0, 32); // queued behind: 16 cycles
    EXPECT_EQ(a, 8u);
    EXPECT_EQ(b, 16u);
}

TEST(Fluid, ContentionPenaltyAppliesOnlyWhenWaiting)
{
    FluidResource res(4, 25);
    EXPECT_EQ(res.acquire(0, 32), 8u);   // uncontended
    // Second request waits: charged 32 * 1.25 = 40 slots.
    EXPECT_EQ(res.acquire(0, 32), 18u);
}

TEST(Fluid, UtilizationAccounting)
{
    FluidResource res(4);
    res.acquire(0, 40);
    EXPECT_DOUBLE_EQ(res.utilization(20), 0.5);
}

// ---------------------------------------------------------------------
// Shared cache
// ---------------------------------------------------------------------

namespace {

struct CacheFixture : public ::testing::Test
{
    CacheFixture() : cmem("cmem", {}), cache("cache", params(), cmem) {}

    static SharedCacheParams
    params()
    {
        SharedCacheParams p;
        p.contention_penalty_pct = 0; // deterministic timing in tests
        return p;
    }

    ClusterMemory cmem;
    SharedCache cache;
};

} // namespace

TEST_F(CacheFixture, Geometry)
{
    EXPECT_EQ(cache.wordsPerLine(), 4u);
    // 512 KB / 32 B = 16384 lines, 4 ways -> 4096 sets.
    EXPECT_EQ(cache.numSets(), 4096u);
}

TEST_F(CacheFixture, ColdMissesThenHits)
{
    auto first = cache.streamAccess(0, 64, 1, false, 0);
    EXPECT_EQ(first.miss_words, 16u); // one per line
    EXPECT_EQ(first.hit_words, 48u);  // same-line follow-ons
    auto second = cache.streamAccess(0, 64, 1, false, first.done);
    EXPECT_EQ(second.miss_words, 0u);
    EXPECT_LT(second.done - first.done, first.done + 1);
}

TEST_F(CacheFixture, WarmAvoidsColdMisses)
{
    cache.warm(1024, 256);
    auto res = cache.streamAccess(1024, 256, 1, false, 0);
    EXPECT_EQ(res.miss_words, 0u);
    EXPECT_TRUE(cache.probe(1024));
    EXPECT_TRUE(cache.probe(1024 + 255));
}

TEST_F(CacheFixture, InvalidateDropsLines)
{
    cache.warm(0, 64);
    EXPECT_TRUE(cache.probe(0));
    cache.invalidateAll();
    EXPECT_FALSE(cache.probe(0));
}

TEST_F(CacheFixture, WritebacksOnDirtyEviction)
{
    // Fill one set with dirty lines, then evict by touching more
    // tags that map to the same set.
    unsigned sets = cache.numSets();
    unsigned wpl = cache.wordsPerLine();
    for (unsigned way = 0; way < 5; ++way) {
        Addr addr = Addr(way) * sets * wpl; // same set, new tag
        cache.streamAccess(addr, wpl, 1, true, 0);
    }
    EXPECT_EQ(cache.writebackCount(), 1u);
}

TEST_F(CacheFixture, LruKeepsRecentlyUsedLines)
{
    unsigned sets = cache.numSets();
    unsigned wpl = cache.wordsPerLine();
    // Touch ways 0..3 of set 0, re-touch way 0, then add a fifth tag.
    for (unsigned way = 0; way < 4; ++way)
        cache.streamAccess(Addr(way) * sets * wpl, 1, 1, false, 0);
    cache.streamAccess(0, 1, 1, false, 0); // refresh way 0
    cache.streamAccess(Addr(4) * sets * wpl, 1, 1, false, 0);
    EXPECT_TRUE(cache.probe(0));                       // kept
    EXPECT_FALSE(cache.probe(Addr(1) * sets * wpl));   // evicted LRU
}

TEST_F(CacheFixture, StridedAccessTouchesMoreLines)
{
    auto unit = cache.streamAccess(0, 32, 1, false, 0);
    cache.invalidateAll();
    auto strided = cache.streamAccess(0, 32, 4, false, 0);
    EXPECT_GT(strided.miss_words, unit.miss_words);
}

TEST_F(CacheFixture, HitRateReporting)
{
    cache.streamAccess(0, 64, 1, false, 0);
    cache.streamAccess(0, 64, 1, false, 0);
    // Tag-level accounting: 16 cold misses, then 16 line re-touches.
    EXPECT_GE(cache.hitRate(), 0.5);
}

// ---------------------------------------------------------------------
// Concurrency control bus
// ---------------------------------------------------------------------

TEST(CcBus, ConcurrentStartCost)
{
    Simulation sim;
    ConcurrencyControlBus ccb("ccb", sim, 8, CcBusParams{});
    EXPECT_EQ(ccb.concurrentStart(100), 100 + 12u);
    EXPECT_EQ(ccb.startCount(), 1u);
}

TEST(CcBus, DispatchSerializesOnTheBus)
{
    Simulation sim;
    ConcurrencyControlBus ccb("ccb", sim, 8, CcBusParams{});
    Tick a = ccb.dispatch(10);
    Tick b = ccb.dispatch(10);
    EXPECT_EQ(a, 12u);
    EXPECT_GT(b, a);
}

TEST(CcBus, BarrierReleasesAllAtOnce)
{
    Simulation sim;
    ConcurrencyControlBus ccb("ccb", sim, 4, CcBusParams{});
    auto barrier = ccb.makeBarrier(3);
    CompletionLog released;
    barrier.arrive(10, released);
    barrier.arrive(25, released);
    EXPECT_EQ(barrier.waiting(), 2u);
    barrier.arrive(40, released);
    sim.run();
    ASSERT_EQ(released.ticks.size(), 3u);
    for (Tick t : released.ticks)
        EXPECT_EQ(t, 40 + CcBusParams{}.join_cycles);
}

TEST(CcBus, BarrierIsReusable)
{
    Simulation sim;
    ConcurrencyControlBus ccb("ccb", sim, 2, CcBusParams{});
    auto barrier = ccb.makeBarrier(2);
    CompletionLog released;
    barrier.arrive(0, released);
    barrier.arrive(0, released);
    sim.run();
    barrier.arrive(100, released);
    barrier.arrive(100, released);
    sim.run();
    EXPECT_EQ(released.ticks.size(), 4u);
}

// ---------------------------------------------------------------------
// Computational element via a full cluster
// ---------------------------------------------------------------------

namespace {

struct CeFixture : public ::testing::Test
{
    CeFixture()
        : gm("gm", mem::GlobalMemoryParams{}),
          cluster_obj("cluster0", sim, gm, 0, ClusterParams{})
    {
    }

    /** Run ops on CE 0 and return the completion tick. */
    Tick
    runOps(std::vector<Op> ops)
    {
        runtime::ProgramStream stream(std::move(ops));
        CompletionLog done;
        cluster_obj.ce(0).run(&stream, &done);
        sim.run();
        EXPECT_EQ(done.ces_done, 1u);
        return cluster_obj.ce(0).lastDone();
    }

    Simulation sim;
    mem::GlobalMemory gm;
    Cluster cluster_obj;
};

} // namespace

TEST_F(CeFixture, ScalarOpTakesItsCycles)
{
    Tick end = runOps({Op::makeScalar(100)});
    EXPECT_EQ(end, 100u);
}

TEST_F(CeFixture, RegisterVectorIsStartupPlusLength)
{
    Tick end = runOps({Op::makeVector(32, VecSource::registers, 2.0)});
    EXPECT_EQ(end, 12 + 32u);
    EXPECT_DOUBLE_EQ(cluster_obj.ce(0).flops(), 64.0);
}

TEST_F(CeFixture, GlobalReadSeesThirteenCycleLatency)
{
    Tick end = runOps({Op::makeGlobalRead(mem::globalAddr(0))});
    EXPECT_EQ(end, 13u); // issue 2 + network/module 6 + drain 5
}

TEST_F(CeFixture, PostedWritesDoNotStall)
{
    Tick end = runOps({Op::makeGlobalWrite(mem::globalAddr(0)),
                       Op::makeGlobalWrite(mem::globalAddr(1)),
                       Op::makeGlobalWrite(mem::globalAddr(2))});
    EXPECT_LE(end, 4u);
}

TEST_F(CeFixture, GlobalDirectVectorLimitedByTwoOutstanding)
{
    // 32 global words at 2 outstanding and ~13-cycle round trips:
    // roughly 13 * 32 / 2 cycles.
    Tick end = runOps(
        {Op::makeVector(32, VecSource::global_direct, 2.0,
                        mem::globalAddr(0), 1)});
    EXPECT_GE(end, 170u);
    EXPECT_LE(end, 260u);
}

TEST_F(CeFixture, PrefetchedVectorBeatsGlobalDirect)
{
    Tick direct = runOps({Op::makeVector(32, VecSource::global_direct,
                                         2.0, mem::globalAddr(0), 1)});
    // Same machine, next CE: prefetch the stream instead.
    runtime::ProgramStream stream(
        {Op::makePrefetch(mem::globalAddr(4096), 32),
         Op::makeVectorFromPrefetch(32, 0, 2.0)});
    CompletionLog done;
    cluster_obj.ce(1).run(&stream, &done);
    Tick start = sim.curTick();
    sim.run();
    ASSERT_EQ(done.ces_done, 1u);
    Tick prefetched = cluster_obj.ce(1).lastDone() - start;
    EXPECT_LT(prefetched, direct);
}

TEST_F(CeFixture, SyncOpDeliversResultToStream)
{
    gm.pokeCell(mem::globalAddr(4), 7);
    std::vector<mem::SyncResult> results;
    runtime::GeneratorStream stream(
        [emitted = false](std::deque<Op> &out) mutable {
            if (emitted)
                return false;
            emitted = true;
            out.push_back(Op::makeSync(mem::globalAddr(4),
                                       mem::SyncOp::fetchAndAdd(2)));
            return true;
        },
        [&](const mem::SyncResult &r) { results.push_back(r); });
    CompletionLog done;
    cluster_obj.ce(0).run(&stream, &done);
    sim.run();
    ASSERT_EQ(done.ces_done, 1u);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].old_value, 7);
    EXPECT_EQ(gm.peekCell(mem::globalAddr(4)), 9);
}

TEST_F(CeFixture, BarrierOpJoinsCes)
{
    unsigned id = cluster_obj.newBarrier(2);
    runtime::ProgramStream fast({Op::makeBarrier(id)});
    runtime::ProgramStream slow(
        {Op::makeScalar(500), Op::makeBarrier(id)});
    CompletionLog done;
    cluster_obj.ce(0).run(&fast, &done);
    cluster_obj.ce(1).run(&slow, &done);
    sim.run();
    EXPECT_EQ(done.ces_done, 2u);
    // Both exit together, after the slow CE's 500 cycles.
    EXPECT_GE(cluster_obj.ce(0).lastDone(), 500u);
    EXPECT_EQ(cluster_obj.ce(0).lastDone(), cluster_obj.ce(1).lastDone());
}

TEST_F(CeFixture, CannotRunTwoStreamsAtOnce)
{
    runtime::ProgramStream a({Op::makeScalar(1000)});
    runtime::ProgramStream b({Op::makeScalar(10)});
    cluster_obj.ce(0).run(&a, nullptr);
    EXPECT_THROW(cluster_obj.ce(0).run(&b, nullptr), std::logic_error);
}

TEST_F(CeFixture, FlopAccountingAccumulates)
{
    runOps({Op::makeScalar(10, 5.0),
            Op::makeVector(32, VecSource::registers, 2.0),
            Op::makeVector(16, VecSource::registers, 1.0)});
    EXPECT_DOUBLE_EQ(cluster_obj.ce(0).flops(), 5.0 + 64.0 + 16.0);
    EXPECT_EQ(cluster_obj.ce(0).opsCompleted(), 3u);
}

TEST(ClusterAssembly, EightCesShareCacheAndBus)
{
    Simulation sim;
    mem::GlobalMemory gm("gm", mem::GlobalMemoryParams{});
    Cluster cl("cluster0", sim, gm, 0, ClusterParams{});
    EXPECT_EQ(cl.numCes(), 8u);
    EXPECT_EQ(cl.ce(0).port(), 0u);
    EXPECT_EQ(cl.ce(7).port(), 7u);
    EXPECT_THROW(cl.barrier(42), std::logic_error);
}

// ---------------------------------------------------------------------
// Software coherence
// ---------------------------------------------------------------------

TEST_F(CacheFixture, FlushWritesBackDirtyLinesAndInvalidates)
{
    cache.streamAccess(0, 64, 1, true, 0);  // dirty
    cache.streamAccess(512, 64, 1, false, 0); // clean
    std::uint64_t wb_before = cache.writebackCount();
    Tick done = cache.flushAll(1000);
    EXPECT_GT(done, 1000u); // 16 dirty lines drained to cluster memory
    EXPECT_GT(cache.writebackCount(), wb_before);
    EXPECT_FALSE(cache.probe(0));
    EXPECT_FALSE(cache.probe(512));
}

TEST_F(CacheFixture, FlushOfCleanCacheIsFree)
{
    cache.streamAccess(0, 64, 1, false, 0);
    Tick done = cache.flushAll(5000);
    EXPECT_EQ(done, 5000u);
    EXPECT_FALSE(cache.probe(0));
}

TEST_F(CeFixture, CoherenceOpFlushesTheSharedCache)
{
    // Dirty the cache, then run a coherence flush op.
    runOps({Op::makeVector(64, VecSource::cluster_mem, 0.0, 0, 1, 1,
                           true),
            Op::makeCoherenceFlush()});
    EXPECT_FALSE(cluster_obj.cache().probe(0));
}
