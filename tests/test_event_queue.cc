/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace ifp::sim {
namespace {

class Recorder : public Event
{
  public:
    Recorder(std::vector<int> &log, int id) : log(log), id(id) {}

    void process() override { log.push_back(id); }

  private:
    std::vector<int> &log;
    int id;
};

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&b, 200);
    eq.schedule(&a, 100);
    eq.schedule(&c, 300);
    eq.simulate();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&a, 50);
    eq.schedule(&b, 50);
    eq.schedule(&c, 50);
    eq.simulate();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.simulate();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    eq.simulate();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, LambdaEventsRunAndAreReclaimed)
{
    EventQueue eq;
    int hits = 0;
    for (int i = 0; i < 200; ++i)
        eq.schedule(i + 1, [&hits] { ++hits; });
    eq.simulate();
    EXPECT_EQ(hits, 200);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SimulateRespectsLimit)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1), b(log, 2);
    eq.schedule(&a, 100);
    eq.schedule(&b, 500);
    eq.simulate(250);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_TRUE(b.scheduled());
    eq.simulate();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.schedule(eq.curTick() + 5, chain);
    };
    eq.schedule(5, chain);
    eq.simulate();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(eq.curTick(), 50u);
}

TEST(EventQueue, SchedulingAtCurrentTickRunsAfterCurrentEvent)
{
    EventQueue eq;
    std::vector<int> log;
    eq.schedule(10, [&] {
        log.push_back(1);
        eq.schedule(10, [&] { log.push_back(2); });
    });
    eq.simulate();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.curTick(), 10u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i + 1, [] {});
    eq.simulate();
    EXPECT_EQ(eq.numExecuted(), 7u);
}

TEST(EventQueue, DescheduledEventCanBeDestroyedSafely)
{
    EventQueue eq;
    std::vector<int> log;
    {
        Recorder a(log, 1);
        eq.schedule(&a, 10);
        eq.deschedule(&a);
        // 'a' destroyed here while a stale heap entry remains.
    }
    eq.simulate();
    EXPECT_TRUE(log.empty());
}

TEST(EventQueue, RescheduleLeavesOnlyOneLiveOccurrence)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    eq.schedule(&a, 10);
    eq.reschedule(&a, 20);
    eq.reschedule(&a, 15);
    eq.simulate();
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(eq.curTick(), 15u);
}

TEST(EventQueueFreeList, FiredOneShotsAreRecycledNotReallocated)
{
    EventQueue eq;
    int hits = 0;
    for (int i = 0; i < 100; ++i)
        eq.schedule(i + 1, [&hits] { ++hits; });
    EXPECT_EQ(eq.ownedPoolSize(), 100u);
    EXPECT_EQ(eq.freeListSize(), 0u);
    eq.simulate();
    EXPECT_EQ(hits, 100);
    EXPECT_EQ(eq.freeListSize(), 100u);

    // A second wave must be served entirely from the free-list.
    for (int i = 0; i < 100; ++i)
        eq.schedule(eq.curTick() + i + 1, [&hits] { ++hits; });
    EXPECT_EQ(eq.ownedPoolSize(), 100u);
    EXPECT_EQ(eq.freeListSize(), 0u);
    eq.simulate();
    EXPECT_EQ(hits, 200);
    EXPECT_EQ(eq.freeListSize(), 100u);
}

TEST(EventQueueFreeList, PoolGrowsOnlyWithConcurrentlyPendingOneShots)
{
    EventQueue eq;
    int hits = 0;
    // Interleave schedule-one/fire-one 500 times: one lambda event
    // should be allocated once and recycled 499 times.
    for (int i = 0; i < 500; ++i) {
        eq.schedule(eq.curTick() + 1, [&hits] { ++hits; });
        eq.step();
    }
    EXPECT_EQ(hits, 500);
    EXPECT_EQ(eq.ownedPoolSize(), 1u);
}

TEST(EventQueueFreeList, RecycledOneShotsNeverDoubleFire)
{
    EventQueue eq;
    std::vector<int> log;
    // Wave 1 leaves stale heap entries for nothing: all fire.
    for (int i = 0; i < 8; ++i)
        eq.schedule(i + 1, [&log, i] { log.push_back(i); });
    eq.simulate();
    // Wave 2 reuses the same event objects with fresh sequence
    // numbers; each callback must run exactly once.
    for (int i = 0; i < 8; ++i)
        eq.schedule(eq.curTick() + i + 1,
                    [&log, i] { log.push_back(100 + i); });
    eq.simulate();
    ASSERT_EQ(log.size(), 16u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(log[i], i);
        EXPECT_EQ(log[8 + i], 100 + i);
    }
}

TEST(EventQueueFreeList, OneShotSchedulingFromRecycledEventWorks)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 50)
            eq.schedule(eq.curTick() + 1, chain);
    };
    eq.schedule(1, chain);
    eq.simulate();
    EXPECT_EQ(depth, 50);
    // The chain schedules the next link from inside the previous
    // one, so at least two lambda events overlap; the pool must stay
    // far below one-allocation-per-link.
    EXPECT_LE(eq.ownedPoolSize(), 4u);
}

TEST(EventQueueFreeList, DestructionWithPendingOneShotsIsClean)
{
    int hits = 0;
    {
        EventQueue eq;
        for (int i = 0; i < 32; ++i)
            eq.schedule(i + 1, [&hits] { ++hits; });
        eq.simulate(10);   // fire 10, leave 22 pending
    }
    // Destroying the queue with live one-shots must neither fire
    // them nor trip the Event destructor assert (no leak under ASan).
    EXPECT_EQ(hits, 10);
}

TEST(EventQueueFreeList, CapturedResourcesReleaseAfterFiring)
{
    EventQueue eq;
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> observer = token;
    eq.schedule(1, [t = std::move(token)] { (void)*t; });
    eq.simulate();
    // The recycled event must have dropped its callback (and the
    // captured shared_ptr) when it was parked on the free-list.
    EXPECT_TRUE(observer.expired());
}

// Regression: descheduling a queue-owned one-shot used to strand the
// LambdaEvent behind its stale heap entry — its captured resources
// stayed alive and the object never returned to the free-list. A
// squashed one-shot is now released and recycled immediately.
TEST(EventQueueFreeList, SquashedOneShotsAreRecycledImmediately)
{
    EventQueue eq;
    int hits = 0;
    Event *ev = eq.schedule(10, [&hits] { ++hits; });
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.freeListSize(), 0u);
    eq.deschedule(ev);
    // Back on the free-list right away, not at drain time.
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_EQ(eq.freeListSize(), 1u);
    // The next one-shot reuses the object instead of allocating.
    eq.schedule(20, [&hits] { hits += 10; });
    EXPECT_EQ(eq.ownedPoolSize(), 1u);
    eq.simulate();
    EXPECT_EQ(hits, 10);
}

TEST(EventQueueFreeList, SquashedOneShotReleasesCapturedResources)
{
    EventQueue eq;
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> observer = token;
    Event *ev = eq.schedule(5, [t = std::move(token)] { (void)*t; });
    eq.deschedule(ev);
    // Captured resources drop at squash time, not when the slot is
    // eventually reused.
    EXPECT_TRUE(observer.expired());
    eq.simulate();   // the stale heap entry must be skipped cleanly
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueFreeList, ScheduleSquashDrainKeepsInvariants)
{
    EventQueue eq;
    int hits = 0;
    std::vector<Event *> one_shots;
    for (int i = 0; i < 16; ++i)
        one_shots.push_back(eq.schedule(i + 1, [&hits] { ++hits; }));
    // Squash every other one...
    for (int i = 1; i < 16; i += 2)
        eq.deschedule(one_shots[i]);
    EXPECT_EQ(eq.size(), 8u);
    EXPECT_EQ(eq.freeListSize(), 8u);
    // ...drain the rest, and every object must be parked for reuse.
    eq.simulate();
    EXPECT_EQ(hits, 8);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_EQ(eq.ownedPoolSize(), 16u);
    EXPECT_EQ(eq.freeListSize(), 16u);
}

TEST(EventQueueFreeList, SquashedSlotsServeNewWorkWithinTheSameTick)
{
    // A device pattern: schedule a drain, cancel it, schedule a
    // replacement at a different tick, repeatedly. The pool must stay
    // at one object and each replacement must run exactly once.
    EventQueue eq;
    int fired = 0;
    for (int round = 0; round < 64; ++round) {
        Event *ev = eq.schedule(eq.curTick() + 100, [] { FAIL(); });
        eq.deschedule(ev);
        eq.schedule(eq.curTick() + 1, [&fired] { ++fired; });
        eq.step();
    }
    eq.simulate();
    EXPECT_EQ(fired, 64);
    EXPECT_EQ(eq.ownedPoolSize(), 1u);
}

TEST(EventQueue, MemberEventsAndOneShotsShareScheduleOrder)
{
    // A device's member event (the CU tick) and queue-owned one-shots
    // due at one tick run in the order they were scheduled, whichever
    // kind each is and whether or not the one-shot was recycled.
    EventQueue eq;
    std::vector<int> log;
    Recorder member(log, 2);
    eq.schedule(1, [&log] { log.push_back(0); });
    eq.simulate();  // parks one recycled one-shot on the free-list

    eq.schedule(10, [&log] { log.push_back(1); });
    eq.schedule(&member, 10);
    eq.schedule(10, [&log] { log.push_back(3); });
    eq.simulate();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));

    // Re-armed at the same tick after a one-shot: order follows the
    // re-arm, not the member's first schedule.
    log.clear();
    eq.schedule(&member, 20);
    eq.schedule(20, [&log] { log.push_back(1); });
    eq.reschedule(&member, 20);
    eq.schedule(20, [&log] { log.push_back(3); });
    eq.simulate();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueClear, DropsPendingEventsAndReleasesCaptures)
{
    EventQueue eq;
    std::vector<int> log;
    auto token = std::make_shared<int>(1);
    eq.schedule(5, [] {});
    eq.simulate();
    auto member = std::make_unique<Recorder>(log, 1);
    eq.schedule(member.get(), 50);
    eq.schedule(40, [t = token] { FAIL() << "cleared one-shot ran"; });
    eq.schedule(60, [t = token] { FAIL() << "cleared one-shot ran"; });
    // A squashed one-shot leaves a stale heap entry behind, and its
    // recycled object is pending again under a newer sequence.
    Event *squashed = eq.schedule(70, [t = token] {});
    eq.deschedule(squashed);
    eq.schedule(80, [t = token] { FAIL() << "cleared one-shot ran"; });
    ASSERT_EQ(eq.size(), 4u);
    ASSERT_EQ(token.use_count(), 4);

    eq.clear();
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 5u);
    EXPECT_FALSE(member->scheduled());
    EXPECT_EQ(token.use_count(), 1) << "cleared captures still held";
    // Every one-shot is parked exactly once, the re-used one included.
    EXPECT_EQ(eq.freeListSize(), eq.ownedPoolSize());
    // Destroying the member's owner must not trip Event::~Event.
    member.reset();
    EXPECT_TRUE(log.empty());
}

TEST(EventQueueClear, QueueStaysUsable)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder member(log, 2);
    eq.schedule(&member, 100);
    eq.schedule(100, [&log] { log.push_back(-1); });
    eq.clear();

    eq.schedule(&member, 7);
    eq.schedule(7, [&log] { log.push_back(3); });
    eq.schedule(3, [&log] { log.push_back(1); });
    EXPECT_EQ(eq.size(), 3u);
    EXPECT_EQ(eq.simulate(), 7u);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(eq.empty());
    eq.clear();  // clearing an empty queue is a no-op
    EXPECT_EQ(eq.size(), 0u);
}

// Regression: constructing a second EventQueue used to overwrite the
// trace tick hook for the whole process, so an older queue's traces
// reported the younger queue's ticks. The hook is now a TraceTickScope
// held only across step()/simulate(), so interleaved queues report
// their own time.
TEST(EventQueueTraceTick, ConcurrentlyLiveQueuesTraceTheirOwnTicks)
{
    EventQueue a;
    EventQueue b;   // would cross-wire 'a' before the fix
    std::uint64_t seen_a = ~0ull, seen_b = ~0ull;
    a.schedule(100, [&] { seen_a = traceCurrentTick(); });
    b.schedule(7, [&] { seen_b = traceCurrentTick(); });
    a.step();
    b.step();
    EXPECT_EQ(seen_a, 100u);
    EXPECT_EQ(seen_b, 7u);
    // And again in the other order, after both queues advanced.
    a.schedule(200, [&] { seen_a = traceCurrentTick(); });
    b.schedule(30, [&] { seen_b = traceCurrentTick(); });
    b.step();
    a.step();
    EXPECT_EQ(seen_a, 200u);
    EXPECT_EQ(seen_b, 30u);
}

TEST(EventQueueTraceTick, DyingQueueDoesNotUnhookSibling)
{
    auto a = std::make_unique<EventQueue>();
    std::uint64_t seen = ~0ull;
    a->schedule(100, [&] { seen = traceCurrentTick(); });
    {
        EventQueue b;   // scopes the hook to its own simulate()...
        b.schedule(1, [] {});
        b.simulate();
    }                   // ...and must leave no trace of itself on death
    a->step();
    EXPECT_EQ(seen, 100u);
}

} // anonymous namespace
} // namespace ifp::sim
