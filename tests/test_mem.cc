/**
 * @file
 * Tests for the global memory system: the address map, the Zhu-Yew
 * synchronization semantics, module timing (including the calibrated
 * conflict loss), end-to-end read/write/sync round trips, and the
 * module's checkpoint restore checks.
 */

#include <gtest/gtest.h>

#include "mem/address.hh"
#include "mem/globalmem.hh"
#include "mem/module.hh"
#include "mem/syncops.hh"
#include "sim/error.hh"
#include "test_snapshot.hh"

using namespace cedar;
using namespace cedar::mem;

// ---------------------------------------------------------------------
// Address map
// ---------------------------------------------------------------------

TEST(AddressMap, GlobalHalfIsUpper)
{
    EXPECT_FALSE(isGlobal(0));
    EXPECT_FALSE(isGlobal(global_base - 1));
    EXPECT_TRUE(isGlobal(global_base));
    EXPECT_TRUE(isGlobal(globalAddr(12345)));
    EXPECT_EQ(globalOffset(globalAddr(12345)), 12345u);
}

TEST(AddressMap, DoubleWordInterleaving)
{
    // Consecutive words land on consecutive modules.
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(moduleOf(globalAddr(i), 32), i % 32);
}

TEST(AddressMap, PageGeometry)
{
    EXPECT_EQ(words_per_page, 512u);
    EXPECT_EQ(pageOf(511), 0u);
    EXPECT_EQ(pageOf(512), 1u);
    EXPECT_TRUE(crossesPage(511, 1));
    EXPECT_FALSE(crossesPage(510, 1));
}

// ---------------------------------------------------------------------
// Synchronization semantics (parameterized over the operate set)
// ---------------------------------------------------------------------

TEST(SyncOps, TestAndSetSemantics)
{
    std::int32_t cell = 0;
    auto op = SyncOp::testAndSet();
    auto first = applySyncOp(cell, op);
    EXPECT_TRUE(first.success);
    EXPECT_EQ(first.old_value, 0);
    EXPECT_EQ(cell, 1);
    auto second = applySyncOp(cell, op);
    EXPECT_FALSE(second.success); // already locked
    EXPECT_EQ(second.old_value, 1);
    EXPECT_EQ(cell, 1);
}

TEST(SyncOps, FetchAndAddReturnsOldValue)
{
    std::int32_t cell = 5;
    auto res = applySyncOp(cell, SyncOp::fetchAndAdd(3));
    EXPECT_TRUE(res.success);
    EXPECT_EQ(res.old_value, 5);
    EXPECT_EQ(cell, 8);
}

TEST(SyncOps, TestGtAndSubGuardsBound)
{
    std::int32_t cell = 1;
    auto op = SyncOp::testGtAndSub(0, 1);
    auto res = applySyncOp(cell, op);
    EXPECT_TRUE(res.success);
    EXPECT_EQ(cell, 0);
    res = applySyncOp(cell, op);
    EXPECT_FALSE(res.success); // 0 > 0 fails; cell unchanged
    EXPECT_EQ(cell, 0);
}

struct SyncCase
{
    SyncTest test;
    std::int32_t test_operand;
    SyncOperate operate;
    std::int32_t operand;
    std::int32_t initial;
    bool expect_success;
    std::int32_t expect_cell;
};

/** Names each case by its fields, so test names are stable and
 *  readable (the default prints the struct's raw bytes, padding
 *  included). */
void
PrintTo(const SyncCase &c, std::ostream *os)
{
    static const char *const tests[] = {"always", "eq", "ne", "lt",
                                        "le",     "gt", "ge"};
    *os << tests[unsigned(c.test)] << ' ' << c.test_operand << ' '
        << syncOperateName(c.operate) << ' ' << c.operand << " on "
        << c.initial << " -> " << (c.expect_success ? "ok " : "fail ")
        << c.expect_cell;
}

class SyncSemantics : public ::testing::TestWithParam<SyncCase>
{
};

TEST_P(SyncSemantics, TestAndOperate)
{
    SyncCase c = GetParam();
    std::int32_t cell = c.initial;
    auto res = applySyncOp(
        cell, SyncOp{c.test, c.test_operand, c.operate, c.operand});
    EXPECT_EQ(res.success, c.expect_success);
    EXPECT_EQ(res.old_value, c.initial);
    EXPECT_EQ(cell, c.expect_cell);
}

INSTANTIATE_TEST_SUITE_P(
    ZhuYew, SyncSemantics,
    ::testing::Values(
        SyncCase{SyncTest::always, 0, SyncOperate::read, 0, 7, true, 7},
        SyncCase{SyncTest::always, 0, SyncOperate::write, 9, 7, true, 9},
        SyncCase{SyncTest::always, 0, SyncOperate::add, 2, 7, true, 9},
        SyncCase{SyncTest::always, 0, SyncOperate::subtract, 2, 7, true, 5},
        SyncCase{SyncTest::always, 0, SyncOperate::logic_and, 6, 7, true, 6},
        SyncCase{SyncTest::always, 0, SyncOperate::logic_or, 8, 7, true, 15},
        SyncCase{SyncTest::eq, 7, SyncOperate::write, 1, 7, true, 1},
        SyncCase{SyncTest::eq, 6, SyncOperate::write, 1, 7, false, 7},
        SyncCase{SyncTest::ne, 6, SyncOperate::add, 1, 7, true, 8},
        SyncCase{SyncTest::ne, 7, SyncOperate::add, 1, 7, false, 7},
        SyncCase{SyncTest::lt, 8, SyncOperate::add, 1, 7, true, 8},
        SyncCase{SyncTest::lt, 7, SyncOperate::add, 1, 7, false, 7},
        SyncCase{SyncTest::le, 7, SyncOperate::add, 1, 7, true, 8},
        SyncCase{SyncTest::gt, 6, SyncOperate::subtract, 1, 7, true, 6},
        SyncCase{SyncTest::gt, 7, SyncOperate::subtract, 1, 7, false, 7},
        SyncCase{SyncTest::ge, 7, SyncOperate::set_one, 0, 7, true, 1}));

// ---------------------------------------------------------------------
// Module timing
// ---------------------------------------------------------------------

TEST(MemoryModule, BackToBackAccessesSerialize)
{
    MemoryModule mod("mod", 2, 2, 0);
    EXPECT_EQ(mod.access(10), 12u);
    EXPECT_EQ(mod.access(10), 14u); // waits for the bank
    EXPECT_EQ(mod.access(100), 102u);
    EXPECT_EQ(mod.accessCount(), 3u);
}

TEST(MemoryModule, ConflictExtraAppliesOnlyUnderContention)
{
    MemoryModule mod("mod", 2, 2, 2);
    EXPECT_EQ(mod.access(10), 12u);  // idle bank: 2 cycles
    EXPECT_EQ(mod.access(10), 16u);  // busy bank: 2 + 2 extra
    EXPECT_EQ(mod.conflictCount(), 1u);
    EXPECT_EQ(mod.access(100), 102u); // idle again
}

TEST(MemoryModule, SyncAccessIsIndivisibleAndSlower)
{
    MemoryModule mod("mod", 2, 3, 0);
    SyncResult res;
    Tick done = mod.syncAccess(10, 40, SyncOp::fetchAndAdd(1), res);
    EXPECT_EQ(done, 15u); // access 2 + sync 3
    EXPECT_EQ(res.old_value, 0);
    EXPECT_EQ(mod.peek(40), 1);
    mod.syncAccess(20, 40, SyncOp::fetchAndAdd(1), res);
    EXPECT_EQ(res.old_value, 1);
    EXPECT_EQ(mod.peek(40), 2);
}

// A cell count of 2^62 times 12 bytes wraps to 0, so a count checked
// by multiplying would accept an empty blob and then try to reserve
// 2^62 cells.
TEST(MemoryModule, RestoreRefusesACellCountTheBlobDoesNotHold)
{
    MemoryModule mod("mod", 2, 3, 0);
    mod.poke(40, -7);
    mod.poke(8, 123);
    CheckpointWriter w(0);
    mod.saveState(w);
    std::string snap = w.finish();

    auto restore = [](const std::string &s) {
        MemoryModule fresh("mod", 2, 3, 0);
        fresh.restoreState(CheckpointReader(s));
        return fresh.peek(40);
    };
    EXPECT_EQ(restore(snap), -7);

    // 12 x 2^62 wraps to 0 bytes, 12 x (2^62 + 2) to the 24 of two cells.
    std::string empty = test::withBytes(snap, "mod", "cells", "");
    test::expectCheckpointError(
        [&] {
            restore(test::withU64(empty, "mod", "cell_count",
                                  std::uint64_t(1) << 62));
        },
        "cell_count 2^62 with an empty blob");
    for (std::uint64_t count : {(std::uint64_t(1) << 62) + 2,
                                std::uint64_t(3)}) {
        test::expectCheckpointError(
            [&] { restore(test::withU64(snap, "mod", "cell_count", count)); },
            "cell_count " + std::to_string(count) + " with two cells");
    }
    test::expectCheckpointError(
        [&] {
            restore(test::withBytes(snap, "mod", "cells",
                                    std::string(25, '\0')));
        },
        "a blob of two cells and one byte");
}

// ---------------------------------------------------------------------
// Global memory end to end
// ---------------------------------------------------------------------

TEST(GlobalMemory, MinReadLatencyMatchesThePaperBudget)
{
    GlobalMemory gm("gm", GlobalMemoryParams{});
    // 2 forward stages + 2-cycle module + 2 reverse stages = 6; the
    // PFU adds 2 to reach the paper's 8-cycle probe latency and the CE
    // adds issue 2 + drain 5 to reach the 13-cycle visible latency.
    EXPECT_EQ(gm.minReadLatency(), 6u);
    auto res = gm.read(0, globalAddr(100), 50);
    EXPECT_EQ(res.data_at_port, 56u);
}

TEST(GlobalMemory, ReadsOfDifferentModulesDoNotConflict)
{
    GlobalMemory gm("gm", GlobalMemoryParams{});
    auto a = gm.read(0, globalAddr(0), 10);
    auto b = gm.read(1, globalAddr(1), 10);
    EXPECT_EQ(a.queueing + b.queueing, 0u);
}

TEST(GlobalMemory, SameModuleReadsSerialize)
{
    GlobalMemoryParams params;
    GlobalMemory gm("gm", params);
    auto a = gm.read(0, globalAddr(0), 10);
    auto b = gm.read(1, globalAddr(32), 10); // same module 0
    EXPECT_GT(b.data_at_port, a.data_at_port);
}

TEST(GlobalMemory, WritesArePostedButTimed)
{
    GlobalMemory gm("gm", GlobalMemoryParams{});
    Tick done = gm.write(3, globalAddr(77), 20);
    EXPECT_GT(done, 20u);
    EXPECT_EQ(gm.writeCount(), 1u);
}

TEST(GlobalMemory, SyncRoundTripCarriesFunctionalResult)
{
    GlobalMemory gm("gm", GlobalMemoryParams{});
    gm.pokeCell(globalAddr(8), 41);
    auto res = gm.sync(0, globalAddr(8), SyncOp::fetchAndAdd(1), 100);
    EXPECT_TRUE(res.sync.success);
    EXPECT_EQ(res.sync.old_value, 41);
    EXPECT_EQ(gm.peekCell(globalAddr(8)), 42);
    EXPECT_GT(res.data_at_port, 100u);
}

TEST(GlobalMemory, SyncsToOneCellSerializeInIssueOrder)
{
    GlobalMemory gm("gm", GlobalMemoryParams{});
    Addr cell = globalAddr(0);
    std::int32_t last = -1;
    for (unsigned port = 0; port < 8; ++port) {
        auto res = gm.sync(port, cell, SyncOp::fetchAndAdd(1), 10);
        EXPECT_EQ(res.sync.old_value, last + 1);
        last = res.sync.old_value;
    }
    EXPECT_EQ(gm.peekCell(cell), 8);
}

TEST(GlobalMemory, RejectsNonGlobalAddresses)
{
    GlobalMemory gm("gm", GlobalMemoryParams{});
    EXPECT_THROW(gm.read(0, 123, 0), std::logic_error);
    EXPECT_THROW(gm.write(0, 123, 0), std::logic_error);
}

TEST(GlobalMemory, ValidatesConfiguration)
{
    GlobalMemoryParams params;
    params.num_ports = 16; // radices say 32
    EXPECT_THROW(GlobalMemory("gm", params), cedar::SimError);
    params = GlobalMemoryParams{};
    params.num_modules = 0;
    EXPECT_THROW(GlobalMemory("gm", params), cedar::SimError);
}

/** Property: sustained bandwidth through the system never exceeds the
 *  768 MB/s budget (16 words/cycle at 2-cycle module occupancy). */
TEST(GlobalMemory, SustainedBandwidthWithinBudget)
{
    GlobalMemory gm("gm", GlobalMemoryParams{});
    Tick first_issue = 0, last_done = 0;
    unsigned total = 0;
    for (Tick t = 0; t < 512; ++t) {
        for (unsigned port = 0; port < 32; port += 4) {
            auto res =
                gm.read(port, globalAddr((t * 4 + port) % 4096), t);
            last_done = std::max(last_done, res.data_at_port);
            ++total;
        }
    }
    double words_per_cycle =
        double(total) / double(last_done - first_issue);
    EXPECT_LE(words_per_cycle, 16.0 + 1e-9);
}
