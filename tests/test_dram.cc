/**
 * @file
 * Timing tests for the DRAM channel model.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "sim/event_queue.hh"

namespace ifp::mem {
namespace {

/** Records the completion tick of every response it receives. */
struct Recorder : MemResponder
{
    explicit Recorder(sim::EventQueue &eq) : eq(eq) {}

    void
    onMemResponse(MemRequest &, std::uint64_t) override
    {
        done.push_back(eq.curTick());
    }

    sim::EventQueue &eq;
    std::vector<sim::Tick> done;
};

MemRequestPtr
makeRead(MemRequestPool &pool, Addr addr, Recorder *rec)
{
    MemRequestPtr req = pool.allocate();
    req->op = MemOp::Read;
    req->addr = addr;
    if (rec)
        req->setResponder(rec);
    return req;
}

TEST(Dram, SingleAccessLatency)
{
    MemRequestPool pool;
    sim::EventQueue eq;
    Dram dram("dram", eq);
    Recorder rec(eq);

    dram.access(makeRead(pool, 0x40, &rec));
    eq.simulate();
    ASSERT_EQ(rec.done.size(), 1u);
    EXPECT_EQ(rec.done[0], dramAccessLatency * dramClockPeriod);
}

TEST(Dram, SameChannelSerializesAtBurstRate)
{
    MemRequestPool pool;
    sim::EventQueue eq;
    Dram dram("dram", eq);
    Recorder rec(eq);

    // Same channel: addresses separated by channels*interleave.
    for (int i = 0; i < 3; ++i) {
        Addr addr = 0x40 + i * dramChannels * dramInterleaveBytes;
        dram.access(makeRead(pool, addr, &rec));
    }
    eq.simulate();
    ASSERT_EQ(rec.done.size(), 3u);
    sim::Tick burst = dramBurstCycles * dramClockPeriod;
    EXPECT_EQ(rec.done[1] - rec.done[0], burst);
    EXPECT_EQ(rec.done[2] - rec.done[1], burst);
}

TEST(Dram, DifferentChannelsProceedInParallel)
{
    MemRequestPool pool;
    sim::EventQueue eq;
    Dram dram("dram", eq);
    Recorder rec(eq);

    for (unsigned i = 0; i < dramChannels; ++i)
        dram.access(makeRead(pool, i * dramInterleaveBytes, &rec));
    eq.simulate();
    ASSERT_EQ(rec.done.size(), dramChannels);
    for (sim::Tick t : rec.done)
        EXPECT_EQ(t, dramAccessLatency * dramClockPeriod);
}

TEST(Dram, CountsReadsAndWrites)
{
    MemRequestPool pool;
    sim::EventQueue eq;
    Dram dram("dram", eq);

    dram.access(makeRead(pool, 0x0, nullptr));
    MemRequestPtr wr = pool.allocate();
    wr->op = MemOp::Write;
    wr->addr = 0x40;
    dram.access(wr);
    wr.reset();
    eq.simulate();
    EXPECT_DOUBLE_EQ(dram.stats().scalar("reads").value(), 1.0);
    EXPECT_DOUBLE_EQ(dram.stats().scalar("writes").value(), 1.0);
    // Responder-less requests are recycled by refcount alone.
    EXPECT_EQ(pool.inUse(), 0u);
}

} // anonymous namespace
} // namespace ifp::mem
