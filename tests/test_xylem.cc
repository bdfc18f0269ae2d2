/**
 * @file
 * Xylem virtual-memory tests: translation grades, per-cluster TLBs,
 * LRU capacity behaviour, and the TRFD fault-amplification property.
 */

#include <gtest/gtest.h>

#include "mem/address.hh"
#include "xylem/vm.hh"

using namespace cedar;
using namespace cedar::xylem;

namespace {

Addr
pageAddr(unsigned page)
{
    return mem::globalAddr(Addr(page) * mem::words_per_page);
}

} // namespace

TEST(Vm, FirstTouchThenHit)
{
    VirtualMemory vm("vm", 4);
    auto first = vm.translate(0, pageAddr(0));
    EXPECT_EQ(first.kind, Translation::Kind::first_touch);
    EXPECT_EQ(first.cycles, VmParams{}.first_touch_cycles);
    auto second = vm.translate(0, pageAddr(0));
    EXPECT_EQ(second.kind, Translation::Kind::hit);
    EXPECT_EQ(second.cycles, VmParams{}.hit_cycles);
    // Same page, different word: still a hit.
    auto third = vm.translate(0, pageAddr(0) + 17);
    EXPECT_EQ(third.kind, Translation::Kind::hit);
}

TEST(Vm, OtherClusterRefillsFromValidPte)
{
    VirtualMemory vm("vm", 4);
    vm.translate(0, pageAddr(5));
    // Cluster 1 has no translation but the PTE is valid: a refill
    // fault, not a first touch — the TRFD mechanism.
    auto t = vm.translate(1, pageAddr(5));
    EXPECT_EQ(t.kind, Translation::Kind::refill);
    EXPECT_EQ(t.cycles, VmParams{}.refill_cycles);
    EXPECT_EQ(vm.firstTouches(), 1u);
    EXPECT_EQ(vm.refills(), 1u);
}

TEST(Vm, PrefaultSkipsFirstTouchCosts)
{
    VirtualMemory vm("vm", 2);
    vm.prefault(pageAddr(0), 4 * mem::words_per_page);
    auto t = vm.translate(0, pageAddr(2));
    EXPECT_EQ(t.kind, Translation::Kind::refill);
    EXPECT_EQ(vm.firstTouches(), 0u);
}

TEST(Vm, TlbCapacityEvictsLru)
{
    VmParams params;
    params.tlb_entries = 4;
    VirtualMemory vm("vm", 1, params);
    for (unsigned p = 0; p < 4; ++p)
        vm.translate(0, pageAddr(p));
    // Touch page 0 to make page 1 the LRU victim.
    EXPECT_EQ(vm.translate(0, pageAddr(0)).kind,
              Translation::Kind::hit);
    vm.translate(0, pageAddr(99)); // evicts page 1
    EXPECT_EQ(vm.translate(0, pageAddr(0)).kind,
              Translation::Kind::hit);
    EXPECT_EQ(vm.translate(0, pageAddr(1)).kind,
              Translation::Kind::refill);
}

TEST(Vm, FlushDropsTranslationsButNotPtes)
{
    VirtualMemory vm("vm", 1);
    vm.translate(0, pageAddr(0));
    vm.flushTlb(0);
    auto t = vm.translate(0, pageAddr(0));
    EXPECT_EQ(t.kind, Translation::Kind::refill);
}

TEST(Vm, FaultAndCycleAccountingPerCluster)
{
    VirtualMemory vm("vm", 2);
    vm.translate(0, pageAddr(0));
    vm.translate(1, pageAddr(0));
    vm.translate(1, pageAddr(1));
    EXPECT_EQ(vm.faults(0), 1u);
    EXPECT_EQ(vm.faults(1), 2u);
    EXPECT_EQ(vm.vmCycles(0), VmParams{}.first_touch_cycles);
    EXPECT_EQ(vm.vmCycles(1), VmParams{}.refill_cycles +
                                  VmParams{}.first_touch_cycles);
}

TEST(Vm, RejectsBadCluster)
{
    VirtualMemory vm("vm", 2);
    EXPECT_THROW(vm.translate(2, pageAddr(0)), std::logic_error);
    EXPECT_THROW(vm.flushTlb(5), std::logic_error);
}

/** The TRFD property: a shared sweep from C clusters takes about C
 *  times the faults of the one-cluster sweep (parameterized in C). */
class TrfdAmplification : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TrfdAmplification, SharedSweepMultipliesFaults)
{
    unsigned clusters = GetParam();
    const unsigned pages = 512; // >> 64-entry TLB, so passes re-fault
    auto sweep = [&](unsigned active) {
        VirtualMemory vm("vm", 4);
        for (unsigned pass = 0; pass < 4; ++pass)
            for (unsigned p = 0; p < pages; ++p)
                for (unsigned c = 0; c < active; ++c)
                    vm.translate(c, pageAddr(p));
        std::uint64_t total = 0;
        for (unsigned c = 0; c < 4; ++c)
            total += vm.faults(c);
        return total;
    };
    double ratio = double(sweep(clusters)) / double(sweep(1));
    EXPECT_NEAR(ratio, double(clusters), 0.05 * clusters);
}

INSTANTIATE_TEST_SUITE_P(Clusters, TrfdAmplification,
                         ::testing::Values(2u, 3u, 4u));

TEST(Vm, DistributedPartitioningAvoidsAmplification)
{
    const unsigned pages = 512;
    VirtualMemory vm("vm", 4);
    // Each cluster sweeps only its quarter.
    for (unsigned pass = 0; pass < 4; ++pass)
        for (unsigned c = 0; c < 4; ++c)
            for (unsigned p = c * pages / 4; p < (c + 1) * pages / 4;
                 ++p)
                vm.translate(c, pageAddr(p));
    std::uint64_t total = 0;
    for (unsigned c = 0; c < 4; ++c)
        total += vm.faults(c);
    // Same total work as a one-cluster sweep of all pages.
    VirtualMemory one("one", 4);
    for (unsigned pass = 0; pass < 4; ++pass)
        for (unsigned p = 0; p < pages; ++p)
            one.translate(0, pageAddr(p));
    EXPECT_LE(total, one.faults(0) + 8);
}

// ---------------------------------------------------------------------
// IP-based I/O model (the BDNA formatted-I/O story)
// ---------------------------------------------------------------------

#include "xylem/io.hh"

TEST(Io, FormattedPaysPerItemConversion)
{
    IoProcessor ip("ip");
    IoRequest req;
    req.items = 1000;
    req.formatted = true;
    // 400 us overhead + 1000 * 12 us.
    EXPECT_NEAR(ip.requestSeconds(req), 0.0124, 1e-6);
}

TEST(Io, UnformattedStreamsAtDeviceBandwidth)
{
    IoProcessor ip("ip");
    IoRequest req;
    req.items = 1000;
    req.formatted = false;
    // 400 us + 8000 bytes at 4 MB/s = 400 us + 2 ms.
    EXPECT_NEAR(ip.requestSeconds(req), 0.0024, 1e-6);
}

TEST(Io, UnformattedGainIsLarge)
{
    IoProcessor ip("ip");
    IoRequest req;
    req.items = 2000;
    req.formatted = true;
    EXPECT_GT(ip.unformattedGain(req), 4.0);
    req.formatted = false;
    EXPECT_THROW(ip.unformattedGain(req), std::logic_error);
}

TEST(Io, AccountingAccumulates)
{
    IoProcessor ip("ip");
    IoRequest req;
    req.items = 100;
    ip.perform(req);
    ip.perform(req);
    EXPECT_EQ(ip.requestCount(), 2u);
    EXPECT_EQ(ip.itemCount(), 200u);
    EXPECT_GT(ip.busySeconds(), 0.0);
}

TEST(Io, BdnaScenarioMatchesTheTable4Story)
{
    // BDNA's profile carries 49 s of formatted I/O; the hand fix
    // (unformatted output) removes most of it, which is the bulk of
    // the 119 s -> 70 s improvement.
    IoProcessor ip("ip");
    BdnaIoScenario bdna;
    double formatted = bdna.formattedSeconds(ip);
    double unformatted = bdna.unformattedSeconds(ip);
    EXPECT_NEAR(formatted, 49.0, 1.0);
    EXPECT_LT(unformatted, 10.0);
    // The saving accounts for the observed 119 - 70 = 49 s within the
    // model's residual.
    EXPECT_NEAR(formatted - unformatted, 49.0, 10.0);
}
