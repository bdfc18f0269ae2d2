/**
 * @file
 * Whole-machine tests: configuration validation, the published
 * parameter budget and memory allocation.
 */

#include <gtest/gtest.h>

#include "machine/cedar.hh"

using namespace cedar;
using namespace cedar::machine;

TEST(Config, StandardMachineMatchesThePaper)
{
    CedarConfig cfg = CedarConfig::standard();
    EXPECT_EQ(cfg.num_clusters, 4u);
    EXPECT_EQ(cfg.cluster.num_ces, 8u);
    EXPECT_EQ(cfg.numCes(), 32u);
    EXPECT_NEAR(cfg.peakMflops(), 376.0, 1.0);
    EXPECT_NEAR(cfg.effectivePeakMflops(), 274.0, 3.0);
}

TEST(Config, LatencyBudgetsMatchThePaper)
{
    CedarMachine machine;
    const auto &cfg = machine.config();
    // PFU probe: network+module 6 + buffer fill 2 = 8 cycles.
    EXPECT_EQ(machine.gm().minReadLatency() + cfg.cluster.pfu.buffer_fill,
              8u);
    // CE-visible: issue 2 + 6 + drain 5 = 13 cycles.
    EXPECT_EQ(cfg.cluster.ce.issue_cycles + machine.gm().minReadLatency() +
                  cfg.cluster.ce.drain_cycles,
              13u);
}

TEST(Config, RejectsMismatchedNetwork)
{
    CedarConfig cfg;
    cfg.num_clusters = 2; // 16 CEs but a 32-port network
    EXPECT_THROW(CedarMachine m(cfg), cedar::SimError);
}

TEST(Machine, CeIndexingIsClusterMajor)
{
    CedarMachine machine;
    EXPECT_EQ(machine.ceAt(0).port(), 0u);
    EXPECT_EQ(machine.ceAt(9).port(), 9u);
    EXPECT_EQ(machine.ceAt(31).port(), 31u);
    EXPECT_EQ(&machine.ceAt(8), &machine.clusterAt(1).ce(0));
}

TEST(Machine, GlobalAllocationIsDisjointAndGlobal)
{
    CedarMachine machine;
    Addr a = machine.allocGlobal(100);
    Addr b = machine.allocGlobal(100);
    EXPECT_TRUE(mem::isGlobal(a));
    EXPECT_TRUE(mem::isGlobal(b));
    EXPECT_GE(mem::globalOffset(b), mem::globalOffset(a) + 100);
}

TEST(Machine, StaggeredAllocationRotatesModulePhase)
{
    CedarMachine machine;
    Addr a = machine.allocGlobalStaggered(64);
    Addr b = machine.allocGlobalStaggered(64);
    Addr c = machine.allocGlobalStaggered(64);
    unsigned ma = mem::moduleOf(a, 32);
    unsigned mb = mem::moduleOf(b, 32);
    unsigned mc = mem::moduleOf(c, 32);
    EXPECT_FALSE(ma == mb && mb == mc);
}

TEST(Machine, ClusterAllocationStaysLocal)
{
    CedarMachine machine;
    Addr a = machine.allocCluster(100);
    EXPECT_FALSE(mem::isGlobal(a));
}

TEST(Machine, TotalFlopsSumsAllClusters)
{
    CedarMachine machine;
    EXPECT_DOUBLE_EQ(machine.totalFlops(), 0.0);
}
