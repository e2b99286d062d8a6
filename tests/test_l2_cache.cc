/**
 * @file
 * Tests for the shared L2: atomics, waiting atomics, monitored-bit
 * notifications, pinning, and the same-line RMW serialization that
 * drives the paper's contention results.
 */

#include <gtest/gtest.h>

#include "mem/backing_store.hh"
#include "mem/dram.hh"
#include "mem/l2_cache.hh"
#include "sim/event_queue.hh"

namespace ifp::mem {
namespace {

/** Observer recording everything the L2 reports. */
class RecordingObserver : public SyncObserver
{
  public:
    WaitDecision
    onWaitFail(const MemRequest &req, MemValue observed) override
    {
        waitFails.push_back({req.addr, observed});
        return decision;
    }

    WaitDecision
    onArmWait(const MemRequest &req) override
    {
        armWaits.push_back({req.addr, req.expected});
        return decision;
    }

    void
    onMonitoredAccess(Addr addr, MemValue new_value, bool is_update,
                      int by_wg) override
    {
        (void)by_wg;
        notifies.push_back({addr, new_value, is_update});
    }

    struct Notify
    {
        Addr addr;
        MemValue value;
        bool isUpdate;
    };

    WaitDecision decision{WaitKind::Stall, 1000};
    std::vector<std::pair<Addr, MemValue>> waitFails;
    std::vector<std::pair<Addr, MemValue>> armWaits;
    std::vector<Notify> notifies;
};

struct L2Fixture : public ::testing::Test, public MemResponder
{
    L2Fixture()
        : dram("dram", eq),
          l2("l2", eq, L2Config{}, dram, store, pool)
    {
        l2.setSyncObserver(&observer);
    }

    void
    onMemResponse(MemRequest &, std::uint64_t) override
    {
        completions.push_back(eq.curTick());
    }

    MemRequestPtr
    issue(MemOp op, Addr addr,
          AtomicOpcode aop = AtomicOpcode::Load, MemValue operand = 0,
          bool waiting = false, MemValue expected = 0)
    {
        MemRequestPtr req = pool.allocate();
        req->op = op;
        req->addr = addr;
        req->aop = aop;
        req->operand = operand;
        req->waiting = waiting;
        req->expected = expected;
        req->setResponder(this);
        l2.access(req);
        return req;
    }

    MemRequestPool pool;
    sim::EventQueue eq;
    BackingStore store;
    Dram dram;
    L2Cache l2;
    RecordingObserver observer;
    std::vector<sim::Tick> completions;
};

TEST_F(L2Fixture, AtomicExecutesAtL2AndReturnsOldValue)
{
    store.write(0x1000, 7, 8);
    auto req = issue(MemOp::Atomic, 0x1000, AtomicOpcode::Add, 3);
    eq.simulate();
    EXPECT_EQ(req->result, 7);
    EXPECT_EQ(store.read(0x1000, 8), 10);
}

TEST_F(L2Fixture, SuccessfulWaitingAtomicProceeds)
{
    store.write(0x1000, 0, 8);
    auto req = issue(MemOp::Atomic, 0x1000, AtomicOpcode::Exch, 1,
                     /*waiting=*/true, /*expected=*/0);
    eq.simulate();
    EXPECT_FALSE(req->waitFailed);
    EXPECT_EQ(req->result, 0);
    EXPECT_EQ(store.read(0x1000, 8), 1);  // exchange happened
    EXPECT_TRUE(observer.waitFails.empty());
}

TEST_F(L2Fixture, FailedWaitingAtomicConsultsObserverAndDoesNotWrite)
{
    store.write(0x1000, 1, 8);  // lock held
    auto req = issue(MemOp::Atomic, 0x1000, AtomicOpcode::Exch, 1,
                     /*waiting=*/true, /*expected=*/0);
    eq.simulate();
    EXPECT_TRUE(req->waitFailed);
    EXPECT_EQ(req->result, 1);
    EXPECT_EQ(store.read(0x1000, 8), 1);  // no modification
    ASSERT_EQ(observer.waitFails.size(), 1u);
    EXPECT_EQ(req->decision.kind, WaitKind::Stall);
    EXPECT_EQ(req->decision.timeoutCycles, 1000u);
}

TEST_F(L2Fixture, ArmWaitConsultsObserver)
{
    auto req = issue(MemOp::ArmWait, 0x2000, AtomicOpcode::Load, 0,
                     false, 5);
    req->expected = 5;
    eq.simulate();
    ASSERT_EQ(observer.armWaits.size(), 1u);
    EXPECT_EQ(observer.armWaits[0].second, 5);
}

TEST_F(L2Fixture, MonitoredLineNotifiesOnUpdate)
{
    l2.setMonitored(0x3000, true);
    EXPECT_TRUE(l2.isMonitored(0x3008));  // same line
    auto wr = issue(MemOp::Write, 0x3000);
    wr->operand = 9;
    eq.simulate();
    ASSERT_GE(observer.notifies.size(), 1u);
    EXPECT_EQ(observer.notifies.back().value, 9);
    EXPECT_TRUE(observer.notifies.back().isUpdate);
}

TEST_F(L2Fixture, UnmonitoredLineDoesNotNotify)
{
    auto wr = issue(MemOp::Write, 0x4000);
    wr->operand = 9;
    eq.simulate();
    EXPECT_TRUE(observer.notifies.empty());
}

TEST_F(L2Fixture, AtomicUpdateToMonitoredLineReportsNewValue)
{
    l2.setMonitored(0x5000, true);
    store.write(0x5000, 10, 8);
    issue(MemOp::Atomic, 0x5000, AtomicOpcode::Add, 5);
    eq.simulate();
    ASSERT_EQ(observer.notifies.size(), 1u);
    EXPECT_EQ(observer.notifies[0].value, 15);
    EXPECT_TRUE(observer.notifies[0].isUpdate);
}

TEST_F(L2Fixture, MonitoredBitClearStopsNotifications)
{
    l2.setMonitored(0x5000, true);
    l2.setMonitored(0x5000, false);
    auto wr = issue(MemOp::Write, 0x5000);
    wr->operand = 1;
    eq.simulate();
    EXPECT_TRUE(observer.notifies.empty());
}

TEST_F(L2Fixture, SameLineAtomicsSerializeAtRmwTurnaround)
{
    // Warm the line so the first atomic's DRAM fill does not overlap
    // the turnaround being measured.
    issue(MemOp::Read, 0x6000);
    eq.simulate();
    completions.clear();
    std::vector<sim::Tick> &done = completions;
    for (int i = 0; i < 3; ++i) {
        MemRequestPtr req = pool.allocate();
        req->op = MemOp::Atomic;
        req->addr = 0x6000;
        req->aop = AtomicOpcode::Add;
        req->operand = 1;
        req->setResponder(this);
        l2.access(req);
    }
    eq.simulate();
    ASSERT_EQ(done.size(), 3u);
    sim::Tick gap =
        l2.config().sameLineAtomicGapCycles * sim::gpuClockPeriod;
    EXPECT_EQ(done[1] - done[0], gap);
    EXPECT_EQ(done[2] - done[1], gap);
    EXPECT_EQ(store.read(0x6000, 8), 3);
}

TEST_F(L2Fixture, DifferentLineAtomicsPipelineFaster)
{
    std::vector<sim::Tick> &done = completions;
    for (int i = 0; i < 2; ++i) {
        MemRequestPtr req = pool.allocate();
        req->op = MemOp::Atomic;
        // Same bank (banks stride by line), different lines.
        req->addr = 0x6000 + static_cast<Addr>(i) * 64 * l2Banks;
        req->aop = AtomicOpcode::Add;
        req->operand = 1;
        req->setResponder(this);
        l2.access(req);
    }
    eq.simulate();
    ASSERT_EQ(done.size(), 2u);
    sim::Tick spacing = done[1] - done[0];
    sim::Tick gap =
        l2.config().sameLineAtomicGapCycles * sim::gpuClockPeriod;
    EXPECT_LT(spacing, gap);
}

TEST_F(L2Fixture, MonitoredLinesArePinned)
{
    // Warm the monitored line, then stream enough lines through its
    // set to evict everything else; the monitored line must survive.
    issue(MemOp::Read, 0x10000);
    eq.simulate();
    l2.setMonitored(0x10000, true);
    completions.clear();

    const L2Config &cfg = l2.config();
    std::size_t sets = cfg.sizeBytes / (cfg.assoc * cacheLineBytes);
    Addr stride = static_cast<Addr>(sets) * cacheLineBytes;
    for (unsigned i = 1; i <= cfg.assoc + 4; ++i)
        issue(MemOp::Read, 0x10000 + i * stride);
    eq.simulate();

    // A read of the monitored line is still a hit (no DRAM access).
    double misses_before = l2.stats().scalar("misses").value();
    issue(MemOp::Read, 0x10000);
    eq.simulate();
    EXPECT_DOUBLE_EQ(l2.stats().scalar("misses").value(),
                     misses_before);
}

TEST_F(L2Fixture, TracksMaxMonitoredLines)
{
    l2.setMonitored(0x1000, true);
    l2.setMonitored(0x2000, true);
    l2.setMonitored(0x1000, false);
    EXPECT_EQ(l2.numMonitored(), 1u);
    EXPECT_EQ(l2.maxMonitored(), 2u);
}

TEST_F(L2Fixture, DrainedRunLeavesNoLiveRequests)
{
    // Misses (fills), hits, atomics and writebacks all recycle.
    for (int i = 0; i < 8; ++i)
        issue(MemOp::Atomic, 0x7000 + i * 256, AtomicOpcode::Add, 1);
    eq.simulate();
    EXPECT_EQ(pool.inUse(), 0u);
    EXPECT_GT(pool.totalAllocations(), 8u);  // includes the fills
}

} // anonymous namespace
} // namespace ifp::mem
