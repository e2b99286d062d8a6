/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

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
    // Wave 1: every one-shot fires.
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
    eq.simulate();   // the squashed one-shot must not run
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
    // A squashed one-shot's recycled object is pending again under a
    // newer sequence.
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

TEST(EventQueueWheel, FarEventsJoinTheWheelBeforeTheNextEventRuns)
{
    // Tick 200,000 lies past the wheel's 131,072-tick span at tick 0
    // and inside it at tick 100,000. The event running at 100,000 sees
    // the far event already on the wheel: a schedule for the same tick
    // runs after it, and a deschedule takes it off the wheel.
    EventQueue eq;
    std::vector<int> log;
    Recorder far(log, 1);
    eq.schedule(&far, 200'000);
    eq.schedule(100'000, [&] {
        eq.schedule(200'000, [&log] { log.push_back(2); });
    });
    eq.simulate();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));

    log.clear();
    eq.schedule(&far, 400'000);
    eq.schedule(300'000, [&] { eq.deschedule(&far); });
    eq.simulate();
    EXPECT_TRUE(log.empty());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 300'000u);
}

// ---------------------------------------------------------------
// Exactness of the queue: a randomized differential test
// ---------------------------------------------------------------

/** One executed event: (tick, test-assigned id). */
using Fired = std::pair<Tick, int>;

/**
 * The single sorted structure the queue must match: every entry,
 * stale ones included, ordered by (when, sequence). Members re-arm
 * themselves on firing as the real ones do.
 */
struct ReferenceQueue
{
    std::set<std::tuple<Tick, std::uint64_t, int>> entries;
    std::map<int, std::uint64_t> live;  //!< id -> pending sequence
    std::map<int, std::pair<Tick, int>> rearm;  //!< member: delay, left
    Tick now = 0;
    std::uint64_t nextSequence = 0;
    std::uint64_t executed = 0;

    void
    schedule(int id, Tick when)
    {
        entries.insert({when, nextSequence, id});
        live[id] = nextSequence++;
    }

    /** Run what is due by @p limit; with @p one, one live event. */
    void
    simulate(Tick limit, std::vector<Fired> &log, bool one = false)
    {
        while (!entries.empty()) {
            auto [when, seq, id] = *entries.begin();
            auto it = live.find(id);
            if (it == live.end() || it->second != seq) {
                entries.erase(entries.begin());  // stale
                continue;
            }
            if (when > limit)
                return;
            entries.erase(entries.begin());
            live.erase(it);
            now = when;
            ++executed;
            log.push_back({when, id});
            auto member = rearm.find(id);
            if (member != rearm.end() && member->second.second > 0) {
                --member->second.second;
                schedule(id, now + member->second.first);
            }
            if (one)
                return;
        }
    }
};

/** A member event that re-arms itself a set number of times. */
class RearmingMember : public Event
{
  public:
    RearmingMember(EventQueue &eq, std::vector<Fired> &log, int id)
        : eq(eq), log(log), id(id)
    {}

    void
    process() override
    {
        log.push_back({eq.curTick(), id});
        if (left > 0) {
            --left;
            eq.schedule(this, eq.curTick() + delay);
        }
    }

    Tick delay = 0;
    int left = 0;

  private:
    EventQueue &eq;
    std::vector<Fired> &log;
    int id;
};

/**
 * Drive one queue and the reference through the same random
 * operations, with delays drawn from @p delays and each simulate()
 * running at most @p maxAdvance ticks ahead.
 */
void
runLaneDifferential(std::uint64_t seed, const std::vector<Tick> &delays,
                    Tick maxAdvance)
{
    constexpr int numMembers = 12;
    Rng rng(seed);
    std::vector<Fired> log, ref_log;
    // Declared before the queue, so a failed assertion's early return
    // clears the queue before any member dies.
    std::vector<std::unique_ptr<RearmingMember>> members;
    EventQueue eq;
    ReferenceQueue ref;
    for (int i = 0; i < numMembers; ++i)
        members.push_back(std::make_unique<RearmingMember>(eq, log, i));
    std::map<int, Event *> one_shots;  // pending id -> handle
    int next_one_shot = numMembers;

    auto pick_delay = [&] { return delays[rng.uniform(delays.size())]; };
    // A pending event, member or one-shot, chosen uniformly.
    auto pick_pending = [&]() -> std::pair<int, Event *> {
        if (ref.live.empty())
            return {-1, nullptr};
        auto it = ref.live.begin();
        std::advance(it, rng.uniform(ref.live.size()));
        const int id = it->first;
        return {id, id < numMembers ? members[id].get() : one_shots[id]};
    };

    for (int op = 0; op < 20'000; ++op) {
        const std::uint64_t roll = rng.uniform(100);
        if (roll < 35) {
            const int id = next_one_shot++;
            const Tick when = eq.curTick() + pick_delay();
            one_shots[id] = eq.schedule(when, [&log, &eq, id] {
                log.push_back({eq.curTick(), id});
            });
            ref.schedule(id, when);
        } else if (roll < 55) {
            const int id = static_cast<int>(rng.uniform(numMembers));
            if (members[id]->scheduled())
                continue;
            members[id]->delay = pick_delay();
            members[id]->left = static_cast<int>(rng.uniform(4));
            ref.rearm[id] = {members[id]->delay, members[id]->left};
            const Tick when = eq.curTick() + pick_delay();
            eq.schedule(members[id].get(), when);
            ref.schedule(id, when);
        } else if (roll < 65) {
            auto [id, ev] = pick_pending();
            if (!ev)
                continue;
            eq.deschedule(ev);
            ref.live.erase(id);
        } else if (roll < 75) {
            auto [id, ev] = pick_pending();
            if (!ev)
                continue;
            const Tick when = eq.curTick() + pick_delay();
            eq.reschedule(ev, when);
            ref.schedule(id, when);
        } else if (roll < 96) {
            const Tick limit = eq.curTick() + rng.uniform(maxAdvance);
            eq.simulate(limit);
            ref.simulate(limit, ref_log);
        } else if (roll < 99) {
            EXPECT_EQ(eq.step(), !ref.live.empty());
            ref.simulate(maxTick, ref_log, /*one=*/true);
        } else {
            eq.clear();
            ref.entries.clear();
            ref.live.clear();
        }
        // Fired one-shots and squashed handles are gone for good.
        std::erase_if(one_shots, [&](const auto &entry) {
            return !ref.live.contains(entry.first);
        });

        ASSERT_EQ(log, ref_log) << "seed " << seed << ", op " << op;
        log.clear();
        ref_log.clear();
        ASSERT_EQ(eq.curTick(), ref.now) << "op " << op;
        ASSERT_EQ(eq.size(), ref.live.size()) << "op " << op;
        ASSERT_EQ(eq.empty(), ref.live.empty()) << "op " << op;
        ASSERT_EQ(eq.numExecuted(), ref.executed) << "op " << op;
    }
    eq.simulate();
    ref.simulate(maxTick, ref_log);
    EXPECT_EQ(log, ref_log);
    EXPECT_TRUE(eq.empty());
    // Every one-shot object is parked again, none lost or doubled.
    EXPECT_EQ(eq.freeListSize(), eq.ownedPoolSize());
}

TEST(EventQueueLanes, MatchesASortedReferenceUnderRandomOperations)
{
    // Fourteen short delays: several ticks share a 256-tick bucket,
    // so inserts walk back past later ticks.
    const std::vector<Tick> near = {0,  1,  2,   3,   5,    7,      8,
                                    13, 64, 100, 500, 2000, 25'000, 73'000};
    for (std::uint64_t seed : {1, 2, 3}) {
        runLaneDifferential(seed, near, 3000);
        if (HasFatalFailure())
            return;
    }
    // Delays straddling the wheel's 131,072-tick span and its bucket
    // edges, so far events migrate onto the wheel; the simulate()
    // window grows in proportion to the longest delay.
    const std::vector<Tick> straddling = {
        0,       1,       255,     256,     257,     500,
        1'000,   130'000, 131'071, 131'072, 131'073, 131'328,
        262'144, 400'000, 1'000'000};
    for (std::uint64_t seed : {4, 5, 6}) {
        runLaneDifferential(seed, straddling, 41'000);
        if (HasFatalFailure())
            return;
    }
}

} // anonymous namespace
} // namespace ifp::sim
