#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ifp::sim {

Event::~Event()
{
    ifp_assert(!_scheduled,
               "event '%s' destroyed while scheduled", description());
}

void
EventQueue::clear()
{
    auto drop = [this](Event *event) {
        event->_scheduled = false;
        if (event->_owned)
            park(event);
    };
    for (Bucket &bucket : buckets) {
        for (Event *event = bucket.head; event; event = event->_next)
            drop(event);
        bucket = Bucket{};
    }
    busy = {};
    for (Event *event : far)
        drop(event);
    far.clear();
    liveEvents = 0;
}

void
EventQueue::park(Event *event)
{
    auto *lam = static_cast<LambdaEvent *>(event);
    lam->release();
    freeList.push_back(lam);
}

void
EventQueue::link(Event *event)
{
    const unsigned b = bucketOf(event->_when);
    Bucket &bucket = buckets[b];
    event->_next = nullptr;
    if (bucket.tail == nullptr) {
        bucket.head = bucket.tail = event;
        busy[b / 64] |= std::uint64_t{1} << (b % 64);
    } else if (bucket.tail->_when <= event->_when) {
        bucket.tail->_next = event;
        bucket.tail = event;
    } else {
        // Sorted by (when, sequence) with no newer sequence: go after
        // every event due by this tick. The tail, due later, stops.
        Event **at = &bucket.head;
        while ((*at)->_when <= event->_when)
            at = &(*at)->_next;
        event->_next = *at;
        *at = event;
    }
}

void
EventQueue::migrate()
{
    // The heap yields in (when, sequence) order, and no insert has
    // reached these buckets yet, so each one stays sorted.
    const Tick end = wheelEnd();
    do {
        std::pop_heap(far.begin(), far.end(), RunsLater{});
        link(far.back());
        far.pop_back();
    } while (!far.empty() && far.front()->_when < end);
}

void
EventQueue::schedule(Event *event, Tick when)
{
    ifp_assert(event != nullptr, "scheduling null event");
    ifp_assert(!event->_scheduled, "event '%s' already scheduled",
               event->description());
    ifp_assert(when >= _curTick,
               "scheduling event '%s' in the past (%lu < %lu)",
               event->description(),
               static_cast<unsigned long>(when),
               static_cast<unsigned long>(_curTick));

    event->_scheduled = true;
    insert(event, when);
    ++liveEvents;
}

void
EventQueue::insert(Event *event, Tick when)
{
    event->_when = when;
    event->_sequence = nextSequence++;
    if (when < wheelEnd()) {
        link(event);
    } else {
        far.push_back(event);
        std::push_heap(far.begin(), far.end(), RunsLater{});
    }
}

void
EventQueue::schedule(Tick when, SmallFunc fn, const char *desc)
{
    // One-shots are recycled: a fired lambda is re-armed instead of
    // paying a fresh make_unique + callable allocation.
    LambdaEvent *ev;
    if (!freeList.empty()) {
        ev = freeList.back();
        freeList.pop_back();
        ev->reset(std::move(fn), desc);
    } else {
        owned.push_back(std::make_unique<LambdaEvent>(std::move(fn), desc));
        ev = owned.back().get();
    }
    ev->_owned = true;
    schedule(ev, when);
}

bool
EventQueue::runNext(Tick limit)
{
    if (liveEvents == far.size()) {
        // Nothing on the wheel: time jumps to the earliest far event.
        if (far.empty() || far.front()->_when > limit)
            return false;
        advanceTo(far.front()->_when);
    }
    // The first busy bucket from curTick()'s holds the earliest event.
    const unsigned b = firstBusyFrom(bucketOf(_curTick));
    Bucket &bucket = buckets[b];
    Event *event = bucket.head;
    if (event->_when > limit)
        return false;
    bucket.head = event->_next;
    if (bucket.head == nullptr) {
        bucket.tail = nullptr;
        busy[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    }
    advanceTo(event->_when);
    event->_scheduled = false;
    --liveEvents;
    ++executed;
    event->process();
    if (event->_owned && !event->_scheduled)
        park(event);  // a one-shot that did not re-arm itself
    return true;
}

std::size_t
EventQueue::dueNow() const
{
    // Every event due now heads curTick()'s bucket.
    std::size_t n = 0;
    for (const Event *event = buckets[bucketOf(_curTick)].head;
         event && event->_when == _curTick; event = event->_next) {
        ++n;
    }
    return n;
}

Tick
EventQueue::nextAfterNow() const
{
    const unsigned start = bucketOf(_curTick);
    for (const Event *event = buckets[start].head; event;
         event = event->_next) {
        if (event->_when > _curTick)
            return event->_when;
    }
    // Any other busy bucket is due before every far event; start's,
    // found again after the wrap, holds nothing later than now.
    const unsigned b = firstBusyFrom((start + 1) % numBuckets);
    if (b != start && b != numBuckets)
        return buckets[b].head->_when;
    return far.empty() ? maxTick : far.front()->_when;
}

void
EventQueue::moveDueNow(Tick when)
{
    ifp_assert(when > _curTick, "moving events due now to the past");
    const unsigned b = bucketOf(_curTick);
    Bucket &bucket = buckets[b];
    Event *moved = bucket.head;
    Event *rest = moved;
    while (rest && rest->_when == _curTick)
        rest = rest->_next;
    if (rest == moved)
        return;
    bucket.head = rest;
    if (rest == nullptr) {
        bucket.tail = nullptr;
        busy[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    }
    while (moved != rest) {
        Event *next = moved->_next;
        insert(moved, when);
        moved = next;
    }
}

bool
EventQueue::step()
{
    return runNext(maxTick);
}

Tick
EventQueue::simulate(Tick limit)
{
    runLimit = limit;
    while (runNext(limit)) {
    }
    runLimit = maxTick;
    return _curTick;
}

} // namespace ifp::sim
