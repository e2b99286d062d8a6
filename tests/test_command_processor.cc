/**
 * @file
 * Tests for the Command Processor firmware model: context switch
 * timing via the DMA engine, rescue timers, and spilled-condition
 * checking (Mesa semantics).
 */

#include <gtest/gtest.h>

#include "cp/command_processor.hh"
#include "gpu/workgroup.hh"
#include "mem/backing_store.hh"
#include "mem/dma.hh"
#include "sim/event_queue.hh"

namespace ifp::cp {
namespace {

/** Scheduler stub that records resume requests. */
class StubScheduler : public gpu::WgScheduler
{
  public:
    bool hasStarvedWork() const override { return starved; }
    void resumeWg(int wg_id) override { resumed.push_back(wg_id); }
    unsigned numWaitingWgs() const override { return 0; }

    bool starved = false;
    std::vector<int> resumed;
};

struct CpFixture : public ::testing::Test
{
    CpFixture()
        : dma("dma", eq),
          cp("cp", eq, CpConfig{}, dma, store)
    {
        cp.setScheduler(&sched);
        kernel.wiPerWg = 64;
        kernel.vgprsPerWi = 16;
        kernel.ldsBytes = 1024;
        kernel.numWgs = 4;
    }

    /**
     * Run forward a bounded amount of time: CP housekeeping
     * legitimately re-schedules forever while unmet spilled
     * conditions exist.
     */
    void
    settle(sim::Tick ticks = 200'000'000)
    {
        eq.simulate(eq.curTick() + ticks);
    }

    sim::EventQueue eq;
    mem::BackingStore store;
    mem::DmaEngine dma;
    CommandProcessor cp;
    StubScheduler sched;
    isa::Kernel kernel;
};

TEST_F(CpFixture, ContextSaveTakesDmaTime)
{
    gpu::WorkGroup wg(0, kernel);
    sim::Tick done = 0;
    cp.saveContext(&wg, [&] { done = eq.curTick(); });
    settle();
    std::uint64_t bytes = kernel.contextBytes();
    sim::Cycles expect = mem::dmaSetupCycles +
                         (bytes + mem::dmaBytesPerCycle - 1) /
                             mem::dmaBytesPerCycle;
    EXPECT_GE(done, expect * sim::gpuClockPeriod);
    EXPECT_EQ(cp.maxContextStoreBytes(), bytes);
}

TEST_F(CpFixture, RestoreReleasesContextStore)
{
    gpu::WorkGroup wg(0, kernel);
    cp.saveContext(&wg, nullptr);
    settle();
    bool restored = false;
    cp.restoreContext(&wg, [&] { restored = true; });
    settle();
    EXPECT_TRUE(restored);
    EXPECT_EQ(cp.maxContextStoreBytes(), kernel.contextBytes());
    // Save again: the high-water mark should not double.
    cp.saveContext(&wg, nullptr);
    settle();
    EXPECT_EQ(cp.maxContextStoreBytes(), kernel.contextBytes());
}

TEST_F(CpFixture, ConcurrentSavesSerializeOnTheDmaEngine)
{
    gpu::WorkGroup wg0(0, kernel), wg1(1, kernel);
    std::vector<sim::Tick> done;
    cp.saveContext(&wg0, [&] { done.push_back(eq.curTick()); });
    cp.saveContext(&wg1, [&] { done.push_back(eq.curTick()); });
    settle();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_GT(done[1], done[0]);
    EXPECT_EQ(cp.maxContextStoreBytes(), 2 * kernel.contextBytes());
}

TEST_F(CpFixture, RescueFiresAfterTimeout)
{
    cp.armRescue(3, 1000);
    settle();
    ASSERT_EQ(sched.resumed.size(), 1u);
    EXPECT_EQ(sched.resumed[0], 3);
    EXPECT_EQ(cp.rescueResumes(), 1u);
}

TEST_F(CpFixture, CancelledRescueDoesNotFire)
{
    cp.armRescue(3, 1000);
    cp.cancelRescue(3);
    settle();
    EXPECT_TRUE(sched.resumed.empty());
}

TEST_F(CpFixture, RearmReplacesDeadline)
{
    cp.armRescue(3, 1000);
    cp.armRescue(3, 5000);
    settle();
    EXPECT_EQ(sched.resumed.size(), 1u);
}

TEST_F(CpFixture, SpilledConditionResumesWhenMet)
{
    store.write(0x7000, 1, 8);
    ASSERT_TRUE(cp.spillCondition(0x7000, /*expected=*/5, /*wg=*/9));
    settle();
    EXPECT_TRUE(sched.resumed.empty());  // condition not met

    // Meet the condition; the periodic check picks it up.
    store.write(0x7000, 5, 8);
    cp.spillCondition(0x7008, 1, 11);  // keeps housekeeping alive
    settle();
    ASSERT_GE(sched.resumed.size(), 1u);
    EXPECT_EQ(sched.resumed[0], 9);
}

TEST_F(CpFixture, LogOverflowReportsFailure)
{
    CpConfig tiny;
    tiny.monitorLogCapacity = 2;
    CommandProcessor small_cp("cp2", eq, tiny, dma, store);
    EXPECT_TRUE(small_cp.spillCondition(0x100, 1, 1));
    EXPECT_TRUE(small_cp.spillCondition(0x140, 2, 2));
    EXPECT_FALSE(small_cp.spillCondition(0x180, 3, 3));
}

TEST_F(CpFixture, DropSpilledForRemovesStaleConditions)
{
    cp.spillCondition(0x9000, 5, 21);
    settle();  // drained into the monitor table, still unmet
    cp.dropSpilledFor(21);
    store.write(0x9000, 5, 8);
    cp.spillCondition(0x9040, 1, 22);
    settle();
    for (int wg : sched.resumed)
        EXPECT_NE(wg, 21);
}

} // anonymous namespace
} // namespace ifp::cp
