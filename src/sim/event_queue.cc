#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

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
    event->_when = when;
    event->_sequence = nextSequence++;
    if (when < wheelEnd()) {
        link(event);
    } else {
        far.push_back(event);
        std::push_heap(far.begin(), far.end(), RunsLater{});
    }
    ++liveEvents;
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
    // From curTick()'s bucket onwards, wrapping, buckets run in time
    // order: the first busy one holds the earliest event.
    const unsigned start = bucketOf(_curTick);
    unsigned word = start / 64;
    std::uint64_t bits = busy[word] & (~std::uint64_t{0} << (start % 64));
    while (bits == 0) {
        word = (word + 1) % busy.size();
        bits = busy[word];
    }
    const unsigned b = word * 64 + std::countr_zero(bits);
    Bucket &bucket = buckets[b];
    Event *event = bucket.head;
    if (event->_when > limit)
        return false;
    bucket.head = event->_next;
    if (bucket.head == nullptr) {
        bucket.tail = nullptr;
        busy[word] &= ~(std::uint64_t{1} << (b % 64));
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

bool
EventQueue::step()
{
    return runNext(maxTick);
}

Tick
EventQueue::simulate(Tick limit)
{
    while (runNext(limit)) {
    }
    return _curTick;
}

} // namespace ifp::sim
