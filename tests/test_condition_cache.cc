/**
 * @file
 * Tests for the SyncMon condition cache and waiting-WG list,
 * including the paper's 26112-bit hardware budget.
 */

#include <gtest/gtest.h>

#include "syncmon/condition_cache.hh"

namespace ifp::syncmon {
namespace {

TEST(WaitingWgList, AllocateAndRelease)
{
    WaitingWgList list(4);
    int a = list.allocate(Waiter{1, 10});
    int b = list.allocate(Waiter{2, 20});
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    EXPECT_EQ(list.inUse(), 2u);
    EXPECT_EQ(list.node(a).wgId, 1);
    EXPECT_EQ(list.node(b).registeredTick, 20u);
    list.release(a);
    EXPECT_EQ(list.inUse(), 1u);
    int c = list.allocate(Waiter{3, 30});
    ASSERT_GE(c, 0);
    EXPECT_EQ(list.maxInUse(), 2u);
}

TEST(WaitingWgList, CapacityExhaustionReturnsMinusOne)
{
    WaitingWgList list(2);
    EXPECT_GE(list.allocate(Waiter{1, 0}), 0);
    EXPECT_GE(list.allocate(Waiter{2, 0}), 0);
    EXPECT_EQ(list.allocate(Waiter{3, 0}), -1);
    list.release(0);
    EXPECT_GE(list.allocate(Waiter{3, 0}), 0);
}

TEST(WaitingWgList, LinkManipulation)
{
    WaitingWgList list(8);
    int a = list.allocate(Waiter{1, 0});
    int b = list.allocate(Waiter{2, 0});
    list.setNext(a, b);
    EXPECT_EQ(list.next(a), b);
    EXPECT_EQ(list.next(b), -1);
}

TEST(ConditionCache, InsertAndFind)
{
    ConditionCache cc;
    EXPECT_EQ(cc.find(0x1000, 5, false), nullptr);
    ConditionCache::Entry *e = cc.insert(0x1000, 5, false, 100);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(cc.find(0x1000, 5, false), e);
    EXPECT_EQ(cc.find(0x1000, 6, false), nullptr);
    EXPECT_EQ(cc.numValid(), 1u);
}

TEST(ConditionCache, ValueDistinguishesConditions)
{
    ConditionCache cc;
    ConditionCache::Entry *a = cc.insert(0x1000, 1, false, 0);
    ConditionCache::Entry *b = cc.insert(0x1000, 2, false, 0);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
    EXPECT_EQ(cc.numConditionsOn(0x1000), 2u);
}

TEST(ConditionCache, AddrOnlyMode)
{
    ConditionCache cc;
    ConditionCache::Entry *e = cc.insert(0x2000, 0, true, 0);
    ASSERT_NE(e, nullptr);
    // MonRS lookups ignore the value.
    EXPECT_EQ(cc.find(0x2000, 12345, true), e);
    // A value-keyed lookup does not alias the addr-only condition.
    EXPECT_EQ(cc.find(0x2000, 0, false), nullptr);
}

TEST(ConditionCache, SetConflictReturnsNull)
{
    // 1 set x 2 ways: the third distinct condition cannot be held.
    ConditionCache cc(1, 2);
    EXPECT_NE(cc.insert(0x1000, 1, false, 0), nullptr);
    EXPECT_NE(cc.insert(0x2000, 2, false, 0), nullptr);
    EXPECT_EQ(cc.insert(0x3000, 3, false, 0), nullptr);
    EXPECT_EQ(cc.numValid(), 2u);
}

TEST(ConditionCache, RemoveFreesTheWay)
{
    ConditionCache cc(1, 1);
    ConditionCache::Entry *e = cc.insert(0x1000, 1, false, 0);
    ASSERT_NE(e, nullptr);
    cc.remove(e);
    EXPECT_EQ(cc.numValid(), 0u);
    EXPECT_EQ(cc.numConditionsOn(0x1000), 0u);
    EXPECT_NE(cc.insert(0x4000, 4, false, 0), nullptr);
}

TEST(ConditionCache, ForEachOnAddrVisitsAllConditions)
{
    ConditionCache cc;
    cc.insert(0x1000, 1, false, 0);
    cc.insert(0x1000, 2, false, 0);
    cc.insert(0x2000, 3, false, 0);
    int visited = 0;
    cc.forEachOnAddr(0x1000, [&](ConditionCache::Entry &e) {
        EXPECT_EQ(e.addr, 0x1000u);
        ++visited;
    });
    EXPECT_EQ(visited, 2);
}

TEST(ConditionCache, TracksHighWaterMark)
{
    ConditionCache cc;
    ConditionCache::Entry *a = cc.insert(0x1000, 1, false, 0);
    cc.insert(0x2000, 2, false, 0);
    cc.remove(a);
    EXPECT_EQ(cc.numValid(), 1u);
    EXPECT_EQ(cc.maxValid(), 2u);
}

TEST(ConditionCache, PaperGeometryAndBudget)
{
    ConditionCache cc(256, 4);
    EXPECT_EQ(cc.capacity(), 1024u);
    // Section V.C: condition cache + waiting-WG list = 26112 bits
    // (3.18 KB after rounding).
    EXPECT_EQ(cc.hardwareBits(512), 26112u);
}

TEST(ConditionCache, HoldsManyDistinctConditions)
{
    ConditionCache cc(256, 4);
    unsigned inserted = 0;
    for (unsigned i = 0; i < 600; ++i) {
        if (cc.insert(0x10000 + i * 64, static_cast<int>(i), false, 0))
            ++inserted;
    }
    // With universal hashing the 1024-entry cache should hold the
    // bulk of 600 uniformly spread conditions.
    EXPECT_GT(inserted, 550u);
}

} // anonymous namespace
} // namespace ifp::syncmon
