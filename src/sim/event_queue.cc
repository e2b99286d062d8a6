#include "sim/event_queue.hh"

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
    // The bucket is sorted by (when, sequence) and holds no newer
    // sequence, so the event goes after everything due by its tick.
    Event *prev = bucket.tail;
    while (prev != nullptr && prev->_when > event->_when)
        prev = prev->_prev;
    Event *next = prev != nullptr ? prev->_next : bucket.head;
    event->_prev = prev;
    event->_next = next;
    (prev != nullptr ? prev->_next : bucket.head) = event;
    (next != nullptr ? next->_prev : bucket.tail) = event;
    busy[b / 64] |= std::uint64_t{1} << (b % 64);
}

void
EventQueue::unlink(Event *event)
{
    const unsigned b = bucketOf(event->_when);
    Bucket &bucket = buckets[b];
    (event->_prev ? event->_prev->_next : bucket.head) = event->_next;
    (event->_next ? event->_next->_prev : bucket.tail) = event->_prev;
    if (bucket.head == nullptr)
        busy[b / 64] &= ~(std::uint64_t{1} << (b % 64));
}

void
EventQueue::farErase(std::size_t index)
{
    Event *last = far.back();
    far.pop_back();
    if (index < far.size())
        farSettle(index, last);
}

void
EventQueue::farSettle(std::size_t index, Event *event)
{
    auto place = [this](std::size_t at, Event *e) {
        far[at] = e;
        e->_farIndex = static_cast<std::uint32_t>(at);
    };
    for (std::size_t parent; index > 0; index = parent) {
        parent = (index - 1) / 2;
        if (!earlier(event, far[parent]))
            break;
        place(index, far[parent]);
    }
    for (std::size_t child; (child = 2 * index + 1) < far.size();
         index = child) {
        if (child + 1 < far.size() && earlier(far[child + 1], far[child]))
            ++child;
        if (!earlier(far[child], event))
            break;
        place(index, far[child]);
    }
    place(index, event);
}

void
EventQueue::migrate()
{
    // The heap yields in (when, sequence) order, and no insert has
    // reached these buckets yet, so each one stays sorted.
    const Tick end = wheelEnd();
    do {
        Event *event = far.front();
        farErase(0);
        link(event);
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
        farSettle(far.size() - 1, event);
    }
    ++liveEvents;
}

void
EventQueue::descheduleImpl(Event *event, bool recycleOwned)
{
    ifp_assert(event != nullptr, "descheduling null event");
    ifp_assert(event->_scheduled, "event '%s' not scheduled",
               event->description());
    if (event->_when < wheelEnd())
        unlink(event);
    else
        farErase(event->_farIndex);
    event->_scheduled = false;
    --liveEvents;
    // A squashed queue-owned one-shot releases its captures and
    // returns to the free-list now.
    if (event->_owned && recycleOwned)
        park(event);
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    // Keep owned one-shots off the free-list across the gap: parking
    // would let schedule(Tick, fn) hand out the object re-armed here.
    if (event->_scheduled)
        descheduleImpl(event, /*recycleOwned=*/false);
    schedule(event, when);
}

Event *
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
    return ev;
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
    Event *event = buckets[word * 64 + std::countr_zero(bits)].head;
    if (event->_when > limit)
        return false;
    unlink(event);
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
