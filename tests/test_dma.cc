/**
 * @file
 * Unit tests for the DMA engine (WG context save/restore transport).
 */

#include <gtest/gtest.h>

#include "mem/dma.hh"
#include "sim/event_queue.hh"

namespace ifp::mem {
namespace {

struct DmaFixture : public ::testing::Test
{
    DmaFixture() : dma("dma", eq) {}

    sim::EventQueue eq;
    DmaEngine dma;
};

TEST_F(DmaFixture, TransferCyclesModel)
{
    // setup + ceil(bytes / bandwidth)
    EXPECT_EQ(dma.transferCycles(0), dmaSetupCycles);
    EXPECT_EQ(dma.transferCycles(1), dmaSetupCycles + 1);
    EXPECT_EQ(dma.transferCycles(dmaBytesPerCycle), dmaSetupCycles + 1);
    EXPECT_EQ(dma.transferCycles(dmaBytesPerCycle * 10),
              dmaSetupCycles + 10);
    EXPECT_EQ(dma.transferCycles(dmaBytesPerCycle * 10 + 1),
              dmaSetupCycles + 11);
}

TEST_F(DmaFixture, CompletionAtModeledTime)
{
    sim::Tick done = 0;
    dma.transfer(4096, [&] { done = eq.curTick(); });
    eq.simulate();
    EXPECT_EQ(done, dma.transferCycles(4096) * sim::gpuClockPeriod);
    EXPECT_TRUE(dma.idle());
}

TEST_F(DmaFixture, TransfersSerialize)
{
    std::vector<sim::Tick> done;
    dma.transfer(1024, [&] { done.push_back(eq.curTick()); });
    dma.transfer(1024, [&] { done.push_back(eq.curTick()); });
    dma.transfer(1024, [&] { done.push_back(eq.curTick()); });
    EXPECT_FALSE(dma.idle());
    eq.simulate();
    ASSERT_EQ(done.size(), 3u);
    sim::Tick unit = dma.transferCycles(1024) * sim::gpuClockPeriod;
    EXPECT_EQ(done[0], unit);
    EXPECT_EQ(done[1], 2 * unit);
    EXPECT_EQ(done[2], 3 * unit);
}

TEST_F(DmaFixture, StatsAccumulate)
{
    dma.transfer(100, nullptr);
    dma.transfer(200, nullptr);
    eq.simulate();
    EXPECT_DOUBLE_EQ(dma.stats().scalar("transfers").value(), 2.0);
    EXPECT_DOUBLE_EQ(dma.stats().scalar("bytes").value(), 300.0);
    EXPECT_GT(dma.stats().scalar("busyTicks").value(), 0.0);
}

TEST_F(DmaFixture, CallbackMayEnqueueMoreWork)
{
    int chained = 0;
    dma.transfer(64, [&] {
        ++chained;
        dma.transfer(64, [&] { ++chained; });
    });
    eq.simulate();
    EXPECT_EQ(chained, 2);
    EXPECT_TRUE(dma.idle());
}

} // anonymous namespace
} // namespace ifp::mem
