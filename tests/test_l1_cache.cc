/**
 * @file
 * Timing and behaviour tests for the per-CU L1 cache.
 */

#include <gtest/gtest.h>

#include "mem/l1_cache.hh"
#include "sim/event_queue.hh"

namespace ifp::mem {
namespace {

/** Next-level stub: responds after a fixed delay and logs accesses. */
class StubLevel : public MemDevice
{
  public:
    StubLevel(sim::EventQueue &eq, sim::Tick delay)
        : eq(eq), delay(delay)
    {}

    void
    access(const MemRequestPtr &req) override
    {
        accesses.push_back(req);
        eq.schedule(eq.curTick() + delay, [req] { req->respond(); });
    }

    sim::EventQueue &eq;
    sim::Tick delay;
    std::vector<MemRequestPtr> accesses;
};

struct L1Fixture : public ::testing::Test, public MemResponder
{
    L1Fixture()
        : stub(eq, 100 * sim::gpuClockPeriod),
          l1("l1", eq, stub, pool)
    {}

    void
    onMemResponse(MemRequest &req, std::uint64_t) override
    {
        completions.push_back(eq.curTick());
        answered.push_back(req.addr);
    }

    MemRequestPtr
    makeReq(MemOp op, Addr addr)
    {
        MemRequestPtr req = pool.allocate();
        req->op = op;
        req->addr = addr;
        req->setResponder(this);
        return req;
    }

    MemRequestPool pool;
    sim::EventQueue eq;
    StubLevel stub;
    L1Cache l1;
    std::vector<sim::Tick> completions;
    std::vector<Addr> answered;
};

TEST_F(L1Fixture, ColdReadMissesAndFills)
{
    l1.access(makeReq(MemOp::Read, 0x1000));
    eq.simulate();
    ASSERT_EQ(completions.size(), 1u);
    // Miss: fill (100 cy stub) + hit latency after fill.
    sim::Tick expected = (100 + l1HitLatency) * sim::gpuClockPeriod;
    EXPECT_EQ(completions[0], expected);
    EXPECT_DOUBLE_EQ(l1.stats().scalar("misses").value(), 1.0);
    // The fill fetched the whole line.
    ASSERT_EQ(stub.accesses.size(), 1u);
    EXPECT_EQ(stub.accesses[0]->size, cacheLineBytes);
}

TEST_F(L1Fixture, WarmReadHitsLocally)
{
    l1.access(makeReq(MemOp::Read, 0x1000));
    eq.simulate();
    completions.clear();
    stub.accesses.clear();

    sim::Tick start = eq.curTick();
    l1.access(makeReq(MemOp::Read, 0x1008));  // same line
    eq.simulate();
    ASSERT_EQ(completions.size(), 1u);
    EXPECT_TRUE(stub.accesses.empty());  // no next-level traffic
    EXPECT_LE(completions[0] - start,
              (l1HitLatency + 1) * sim::gpuClockPeriod);
    EXPECT_DOUBLE_EQ(l1.stats().scalar("hits").value(), 1.0);
}

TEST_F(L1Fixture, MshrMergesConcurrentMisses)
{
    l1.access(makeReq(MemOp::Read, 0x2000));
    l1.access(makeReq(MemOp::Read, 0x2010));
    l1.access(makeReq(MemOp::Read, 0x2020));
    eq.simulate();
    EXPECT_EQ(completions.size(), 3u);
    EXPECT_EQ(stub.accesses.size(), 1u);  // one fill for all three
}

TEST_F(L1Fixture, MshrAnswersMergedReadsInArrivalOrder)
{
    // Two lines missing at once, their reads interleaved.
    for (Addr addr : {0x2000, 0x4000, 0x2010, 0x4010, 0x2020})
        l1.access(makeReq(MemOp::Read, addr));
    eq.simulate();
    EXPECT_EQ(answered,
              (std::vector<Addr>{0x2000, 0x2010, 0x2020, 0x4000, 0x4010}));
    EXPECT_EQ(stub.accesses.size(), 2u);

    // The freed MSHRs serve the next misses just the same.
    answered.clear();
    for (Addr addr : {0x6008, 0x6000, 0x6010})
        l1.access(makeReq(MemOp::Read, addr));
    eq.simulate();
    EXPECT_EQ(answered, (std::vector<Addr>{0x6008, 0x6000, 0x6010}));
    EXPECT_EQ(stub.accesses.size(), 3u);
}

TEST_F(L1Fixture, WritesAreWriteThrough)
{
    auto wr = makeReq(MemOp::Write, 0x3000);
    wr->operand = 42;
    l1.access(wr);
    eq.simulate();
    ASSERT_EQ(stub.accesses.size(), 1u);
    EXPECT_EQ(stub.accesses[0]->op, MemOp::Write);
    EXPECT_DOUBLE_EQ(l1.stats().scalar("writethroughs").value(), 1.0);
    // No write-allocate: a subsequent read still misses.
    stub.accesses.clear();
    l1.access(makeReq(MemOp::Read, 0x3000));
    eq.simulate();
    EXPECT_EQ(stub.accesses.size(), 1u);
}

TEST_F(L1Fixture, AtomicsBypassToNextLevel)
{
    auto at = makeReq(MemOp::Atomic, 0x4000);
    l1.access(at);
    eq.simulate();
    ASSERT_EQ(stub.accesses.size(), 1u);
    EXPECT_EQ(stub.accesses[0]->op, MemOp::Atomic);
    EXPECT_DOUBLE_EQ(l1.stats().scalar("bypasses").value(), 1.0);
}

TEST_F(L1Fixture, AcquireAtomicInvalidatesL1)
{
    // Warm a line.
    l1.access(makeReq(MemOp::Read, 0x1000));
    eq.simulate();
    stub.accesses.clear();

    auto at = makeReq(MemOp::Atomic, 0x9000);
    at->acquire = true;
    l1.access(at);
    eq.simulate();
    EXPECT_DOUBLE_EQ(l1.stats().scalar("invalidations").value(), 1.0);

    // The previously warm line now misses again.
    stub.accesses.clear();
    l1.access(makeReq(MemOp::Read, 0x1000));
    eq.simulate();
    EXPECT_EQ(stub.accesses.size(), 1u);
}

TEST_F(L1Fixture, NoRequestsLeakAcrossRuns)
{
    l1.access(makeReq(MemOp::Read, 0x1000));
    l1.access(makeReq(MemOp::Read, 0x1008));
    auto at = makeReq(MemOp::Atomic, 0x2000);
    at->acquire = true;
    l1.access(at);
    at.reset();
    eq.simulate();
    stub.accesses.clear();
    EXPECT_EQ(pool.inUse(), 0u);
}

} // anonymous namespace
} // namespace ifp::mem
