/**
 * @file
 * Tests for the SyncMon controller: condition registration, the
 * resume policies of each mode, AWG's predictor, spilling, and stall
 * timeouts. Drives a real L2 so ordering matches the system.
 */

#include <gtest/gtest.h>

#include "cp/command_processor.hh"
#include "mem/dram.hh"
#include "mem/l2_cache.hh"
#include "sim/event_queue.hh"
#include "syncmon/sync_monitor.hh"

namespace ifp::syncmon {
namespace {

class StubScheduler : public gpu::WgScheduler
{
  public:
    bool hasStarvedWork() const override { return starved; }
    void resumeWg(int wg_id) override { resumed.push_back(wg_id); }
    unsigned numWaitingWgs() const override { return 0; }

    bool starved = false;
    std::vector<int> resumed;
};

struct SyncMonFixture : public ::testing::Test
{
    void
    build(SyncMonMode mode, SyncMonConfig cfg = SyncMonConfig{})
    {
        dram = std::make_unique<mem::Dram>("dram", eq);
        l2 = std::make_unique<mem::L2Cache>("l2", eq,
                                            mem::L2Config{}, *dram,
                                            store, pool);
        dma = std::make_unique<mem::DmaEngine>("dma", eq);
        cp = std::make_unique<cp::CommandProcessor>(
            "cp", eq, cp::CpConfig{}, *dma, store);
        cp->setScheduler(&sched);
        mon = std::make_unique<SyncMonController>("mon", eq, mode,
                                                  cfg, *l2, store,
                                                  *cp);
        mon->setScheduler(&sched);
        cp->setSpillObserver(mon.get());
    }

    /** Issue a waiting atomic and run to completion. */
    mem::MemRequestPtr
    waitingLoad(mem::Addr addr, mem::MemValue expected, int wg)
    {
        mem::MemRequestPtr req = pool.allocate();
        req->op = mem::MemOp::Atomic;
        req->aop = mem::AtomicOpcode::Load;
        req->addr = addr;
        req->waiting = true;
        req->expected = expected;
        req->wgId = wg;
        l2->access(req);
        settle();
        return req;
    }

    void
    atomicStore(mem::Addr addr, mem::MemValue value)
    {
        mem::MemRequestPtr req = pool.allocate();
        req->op = mem::MemOp::Atomic;
        req->aop = mem::AtomicOpcode::Store;
        req->addr = addr;
        req->operand = value;
        req->wgId = 99;
        l2->access(req);
        settle();
    }

    void
    armWait(mem::Addr addr, mem::MemValue expected, int wg)
    {
        mem::MemRequestPtr req = pool.allocate();
        req->op = mem::MemOp::ArmWait;
        req->addr = addr;
        req->expected = expected;
        req->wgId = wg;
        l2->access(req);
        settle();
    }

    /** Bounded settling: housekeeping may re-schedule indefinitely. */
    void
    settle(sim::Tick ticks = 200'000'000)
    {
        eq.simulate(eq.curTick() + ticks);
    }

    mem::MemRequestPool pool;
    sim::EventQueue eq;
    mem::BackingStore store;
    std::unique_ptr<mem::Dram> dram;
    std::unique_ptr<mem::L2Cache> l2;
    std::unique_ptr<mem::DmaEngine> dma;
    std::unique_ptr<cp::CommandProcessor> cp;
    std::unique_ptr<SyncMonController> mon;
    StubScheduler sched;
};

TEST_F(SyncMonFixture, FailedWaitRegistersAndMonitors)
{
    build(SyncMonMode::MonNRAll);
    store.write(0x1000, 0, 8);
    auto req = waitingLoad(0x1000, /*expected=*/7, /*wg=*/1);
    EXPECT_TRUE(req->waitFailed);
    EXPECT_EQ(req->decision.kind, mem::WaitKind::Stall);
    EXPECT_TRUE(l2->isMonitored(0x1000));
    EXPECT_EQ(mon->maxConditions(), 1u);
    EXPECT_EQ(mon->maxWaiters(), 1u);
}

TEST_F(SyncMonFixture, MonNrAllResumesAllOnConditionMet)
{
    build(SyncMonMode::MonNRAll);
    for (int wg = 0; wg < 3; ++wg)
        waitingLoad(0x1000, 7, wg);
    atomicStore(0x1000, 7);
    ASSERT_EQ(sched.resumed.size(), 3u);
}

TEST_F(SyncMonFixture, MonNrAllIgnoresNonMatchingUpdates)
{
    build(SyncMonMode::MonNRAll);
    waitingLoad(0x1000, 7, 1);
    atomicStore(0x1000, 6);
    EXPECT_TRUE(sched.resumed.empty());
    atomicStore(0x1000, 7);
    EXPECT_EQ(sched.resumed.size(), 1u);
}

TEST_F(SyncMonFixture, MonNrOneResumesOneAtATime)
{
    build(SyncMonMode::MonNROne);
    for (int wg = 0; wg < 3; ++wg)
        waitingLoad(0x2000, 1, wg);
    atomicStore(0x2000, 1);
    ASSERT_EQ(sched.resumed.size(), 1u);
    EXPECT_EQ(sched.resumed[0], 0);  // FIFO order
    // A later matching update resumes the next waiter.
    atomicStore(0x2000, 0);
    atomicStore(0x2000, 1);
    EXPECT_EQ(sched.resumed.size(), 2u);
    EXPECT_EQ(sched.resumed[1], 1);
}

TEST_F(SyncMonFixture, MonRsSporadicResumesOnAnyAccess)
{
    build(SyncMonMode::MonRSAll);
    armWait(0x3000, 5, 1);
    armWait(0x3000, 6, 2);
    EXPECT_TRUE(l2->isMonitored(0x3000));
    // A non-matching update still notifies (sporadic, no check).
    atomicStore(0x3000, 1);
    EXPECT_EQ(sched.resumed.size(), 2u);
}

TEST_F(SyncMonFixture, MonRChecksConditionOnUpdate)
{
    build(SyncMonMode::MonRAll);
    armWait(0x3000, 5, 1);
    atomicStore(0x3000, 4);
    EXPECT_TRUE(sched.resumed.empty());
    atomicStore(0x3000, 5);
    EXPECT_EQ(sched.resumed.size(), 1u);
}

TEST_F(SyncMonFixture, AwgResumesOneForMutexPattern)
{
    build(SyncMonMode::Awg);
    // Lock-like: values alternate 0/1 -> at most 2 uniques.
    store.write(0x4000, 1, 8);
    for (int wg = 0; wg < 4; ++wg)
        waitingLoad(0x4000, 0, wg);
    atomicStore(0x4000, 1);
    atomicStore(0x4000, 0);  // release: condition met
    ASSERT_EQ(sched.resumed.size(), 1u);
    EXPECT_DOUBLE_EQ(mon->stats().scalar("predictOne").value(), 1.0);
}

TEST_F(SyncMonFixture, AwgResumesAllForBarrierPattern)
{
    build(SyncMonMode::Awg);
    // Register waiters first so the monitored line observes the
    // arrival-counter updates (values 1..6 on the same line).
    for (int wg = 0; wg < 4; ++wg)
        waitingLoad(0x5008, 9, wg);
    for (int v = 1; v <= 6; ++v)
        atomicStore(0x5000, v);  // same line, different word
    atomicStore(0x5008, 9);  // release
    ASSERT_EQ(sched.resumed.size(), 4u);
    EXPECT_DOUBLE_EQ(mon->stats().scalar("predictAll").value(), 1.0);
}

TEST_F(SyncMonFixture, AwgStallTimeoutSwitchesOnlyWhenStarved)
{
    build(SyncMonMode::Awg);
    mem::WaitDecision d = mon->onStallTimeout(1, 0x100, 5);
    EXPECT_EQ(d.kind, mem::WaitKind::Proceed);
    sched.starved = true;
    d = mon->onStallTimeout(1, 0x100, 5);
    EXPECT_EQ(d.kind, mem::WaitKind::Switch);
}

TEST_F(SyncMonFixture, NonAwgStallTimeoutResumes)
{
    build(SyncMonMode::MonNRAll);
    waitingLoad(0x1000, 7, 1);
    mem::WaitDecision d = mon->onStallTimeout(1, 0x1000, 7);
    EXPECT_EQ(d.kind, mem::WaitKind::Proceed);
    // The waiter registration was dropped: a met condition later
    // resumes nobody.
    atomicStore(0x1000, 7);
    EXPECT_TRUE(sched.resumed.empty());
}

TEST_F(SyncMonFixture, SwitchDecisionWhenWorkIsStarved)
{
    build(SyncMonMode::MonNRAll);
    sched.starved = true;
    auto req = waitingLoad(0x1000, 7, 1);
    EXPECT_EQ(req->decision.kind, mem::WaitKind::Switch);
}

TEST_F(SyncMonFixture, DuplicateRegistrationDoesNotGrowTheList)
{
    build(SyncMonMode::MonNRAll);
    waitingLoad(0x1000, 7, 1);
    waitingLoad(0x1000, 7, 1);  // Mesa retry re-registers
    EXPECT_EQ(mon->maxWaiters(), 1u);
    atomicStore(0x1000, 7);
    EXPECT_EQ(sched.resumed.size(), 1u);
}

TEST_F(SyncMonFixture, SetConflictSpillsToMonitorLog)
{
    SyncMonConfig tiny;
    tiny.sets = 1;
    tiny.ways = 1;
    build(SyncMonMode::MonNRAll, tiny);
    store.write(0x1000, 0, 8);
    store.write(0x2000, 0, 8);
    waitingLoad(0x1000, 7, 1);
    auto req = waitingLoad(0x2000, 8, 2);  // conflicts: spills
    EXPECT_NE(req->decision.kind, mem::WaitKind::Retry);
    EXPECT_DOUBLE_EQ(mon->stats().scalar("spills").value(), 1.0);
    // The spilled condition is honored by the CP when met.
    store.write(0x2000, 8, 8);
    waitingLoad(0x3000, 1, 3);  // keeps the system busy
    settle();
    bool resumed_2 = false;
    for (int wg : sched.resumed)
        resumed_2 |= wg == 2;
    EXPECT_TRUE(resumed_2);
}

TEST_F(SyncMonFixture, WaiterListExhaustionSpills)
{
    SyncMonConfig tiny;
    tiny.waitingListCapacity = 2;
    build(SyncMonMode::MonNRAll, tiny);
    waitingLoad(0x1000, 7, 1);
    waitingLoad(0x1000, 7, 2);
    waitingLoad(0x1000, 7, 3);  // no list node: spilled
    EXPECT_DOUBLE_EQ(mon->stats().scalar("spills").value(), 1.0);
}

TEST_F(SyncMonFixture, MonitoredBitClearsLazilyAfterRetire)
{
    build(SyncMonMode::MonNRAll);
    waitingLoad(0x1000, 7, 1);
    // Retire the condition, but only simulate a short distance so the
    // idle-cleanup timer has not fired yet.
    mem::MemRequestPtr req = pool.allocate();
    req->op = mem::MemOp::Atomic;
    req->aop = mem::AtomicOpcode::Store;
    req->addr = 0x1000;
    req->operand = 7;
    l2->access(req);
    eq.simulate(eq.curTick() + 1000 * sim::gpuClockPeriod);
    ASSERT_EQ(sched.resumed.size(), 1u);
    EXPECT_TRUE(l2->isMonitored(0x1000));  // lazy cleanup grace
    settle();                              // let the idle timer fire
    EXPECT_FALSE(l2->isMonitored(0x1000));
}

TEST_F(SyncMonFixture, MinResumeOnlyWakesWaitersWhoseConditionHolds)
{
    build(SyncMonMode::MinResume);
    store.write(0x6000, 0, 8);
    waitingLoad(0x6000, 3, 1);
    waitingLoad(0x6000, 4, 2);
    atomicStore(0x6000, 3);
    ASSERT_EQ(sched.resumed.size(), 1u);
    EXPECT_EQ(sched.resumed[0], 1);
    atomicStore(0x6000, 4);
    ASSERT_EQ(sched.resumed.size(), 2u);
    EXPECT_EQ(sched.resumed[1], 2);
}

TEST_F(SyncMonFixture, SpillKeepsLineAccountingAndPredictorState)
{
    // Regression: a condition that spills to the Monitor Log must
    // keep its line's refcount, monitored bit and AWG Bloom state
    // alive until the CP resolves it. (Both used to be torn down by
    // the idle-cleanup timer as soon as the cached conditions
    // retired, which silently disabled the predictor for the spill's
    // whole log residency.)
    SyncMonConfig tiny;
    tiny.waitingListCapacity = 1;
    build(SyncMonMode::Awg, tiny);
    store.write(0xA000, 0, 8);
    waitingLoad(0xA000, 100, 1);  // cached condition
    waitingLoad(0xA000, 200, 2);  // list full: spills to the log
    EXPECT_DOUBLE_EQ(mon->stats().scalar("spills").value(), 1.0);
    EXPECT_EQ(mon->lineCondCount(0xA000), 2u);

    // The spilled record reached global memory intact: the timed
    // append must not clobber its own record words (its first word
    // is the monitored address, not the expected value).
    mem::Addr rec = cp->monitorLog().baseAddr();
    EXPECT_EQ(store.read(rec, 8), 0xA000);
    EXPECT_EQ(store.read(rec + 8, 8), 200);
    EXPECT_EQ(store.read(rec + 16, 8), 2);

    // Accumulate predictor observations on the monitored line.
    for (int v = 1; v <= 5; ++v)
        atomicStore(0xA000, v);
    unsigned uniques = mon->bloomUniquesFor(0xA000);
    EXPECT_GE(uniques, 3u);

    // Retire the cached condition; only the spilled one remains.
    atomicStore(0xA000, 100);
    EXPECT_EQ(mon->lineCondCount(0xA000), 1u);
    settle();  // well past the idle-cleanup window
    EXPECT_TRUE(l2->isMonitored(0xA000));
    EXPECT_GE(mon->bloomUniquesFor(0xA000), uniques);

    // Meet the spilled condition: the CP's housekeeping check (not a
    // rescue timeout) must resume the waiter and release the line.
    atomicStore(0xA000, 200);
    waitingLoad(0xB000, 1, 7);  // keeps the system busy
    settle();
    bool resumed_2 = false;
    for (int wg : sched.resumed)
        resumed_2 |= wg == 2;
    EXPECT_TRUE(resumed_2);
    EXPECT_GE(cp->stats().scalar("spilledResumes").value(), 1.0);
    EXPECT_EQ(mon->lineCondCount(0xA000), 0u);

    // Only now may the lazy cleanup fire and recycle the predictor.
    settle();
    EXPECT_FALSE(l2->isMonitored(0xA000));
    EXPECT_EQ(mon->bloomUniquesFor(0xA000), 0u);
    EXPECT_GE(mon->stats().scalar("bloomResets").value(), 1.0);
}

TEST_F(SyncMonFixture, AwgTracksMispredictedResumes)
{
    build(SyncMonMode::Awg);
    store.write(0x4000, 1, 8);
    for (int wg = 0; wg < 4; ++wg)
        waitingLoad(0x4000, 0, wg);
    atomicStore(0x4000, 1);
    atomicStore(0x4000, 0);  // release: mutex-like, resume-one
    ASSERT_EQ(sched.resumed.size(), 1u);
    int winner = sched.resumed[0];
    EXPECT_DOUBLE_EQ(mon->stats().scalar("predictedResumes").value(),
                     1.0);
    EXPECT_DOUBLE_EQ(
        mon->stats().scalar("mispredictedResumes").value(), 0.0);

    // Another WG takes the lock before the resumed waiter's atomic
    // re-executes; the waiter re-registers the same condition, which
    // is exactly a mispredicted resume.
    atomicStore(0x4000, 1);
    waitingLoad(0x4000, 0, winner);
    EXPECT_DOUBLE_EQ(
        mon->stats().scalar("mispredictedResumes").value(), 1.0);
}

TEST_F(SyncMonFixture, HardwareBudgetMatchesPaper)
{
    build(SyncMonMode::Awg);
    EXPECT_EQ(mon->conditionCacheBits(), 26112u);
    EXPECT_EQ(mon->bloomBits(), 12288u);
}

} // anonymous namespace
} // namespace ifp::syncmon
