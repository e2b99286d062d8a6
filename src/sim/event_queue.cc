#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace ifp::sim {

Event::~Event()
{
    ifp_assert(!_scheduled,
               "event '%s' destroyed while scheduled", description());
}

namespace {

// Pre-sized heap storage: the evaluation geometry keeps hundreds of
// events in flight, and growing through the first few powers of two
// on every run is pure waste once sweeps construct one queue per run.
constexpr std::size_t initialHeapCapacity = 1024;

} // anonymous namespace

EventQueue::EventQueue()
{
    std::vector<HeapEntry> storage;
    storage.reserve(initialHeapCapacity);
    heap = Heap(std::greater<HeapEntry>(), std::move(storage));
}

EventQueue::~EventQueue()
{
    clear();  // so no event dies scheduled, owned or external
}

void
EventQueue::clear()
{
    while (!heap.empty()) {
        HeapEntry entry = heap.top();
        heap.pop();
        Event *event = entry.event;
        if (!event->_scheduled || event->_sequence != entry.sequence)
            continue;  // stale entry: its event is no longer pending
        event->_scheduled = false;
        if (event->_owned)
            park(event);
    }
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
    heap.push(HeapEntry{when, event->_sequence, event});
    ++liveEvents;
}

void
EventQueue::deschedule(Event *event)
{
    descheduleImpl(event, /*recycleOwned=*/true);
}

void
EventQueue::descheduleImpl(Event *event, bool recycleOwned)
{
    ifp_assert(event != nullptr, "descheduling null event");
    ifp_assert(event->_scheduled, "event '%s' not scheduled",
               event->description());
    event->_scheduled = false;
    ifp_assert(liveEvents > 0, "live event underflow");
    --liveEvents;
    if (event->_owned && recycleOwned) {
        // Squashed queue-owned one-shot: release its captures and
        // recycle it now. The stale heap entry is harmless — reuse
        // assigns a strictly newer sequence number, so the pop loop
        // skips it — and never recycles (only this path, the
        // post-process path and clear() park events, each only a
        // pending one, so no double-free).
        park(event);
    }
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    // Keep owned one-shots off the free-list across the gap: the
    // same object is re-armed immediately, and parking it would let
    // schedule(Tick, fn) hand it out while still in use here.
    if (event->_scheduled)
        descheduleImpl(event, /*recycleOwned=*/false);
    schedule(event, when);
}

Event *
EventQueue::schedule(Tick when, SmallFunc fn, const char *desc)
{
    // One-shots are recycled: a fired lambda is re-armed instead of
    // paying a fresh make_unique + std::function allocation. Stale
    // heap entries for a recycled event are harmless because reuse
    // assigns a strictly newer sequence number.
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
EventQueue::step()
{
    // Scope the trace hook to this step: queues may interleave on
    // one thread, and sweep workers each carry their own queue.
    TraceTickScope trace_scope(&_curTick);
    return stepOne();
}

bool
EventQueue::stepOne()
{
    while (!heap.empty()) {
        HeapEntry entry = heap.top();
        heap.pop();
        Event *event = entry.event;
        // Stale entry: event was descheduled (and possibly rescheduled
        // with a newer sequence number).
        if (!event->_scheduled || event->_sequence != entry.sequence)
            continue;

        ifp_assert(entry.when >= _curTick, "time went backwards");
        _curTick = entry.when;
        event->_scheduled = false;
        ifp_assert(liveEvents > 0, "live event underflow");
        --liveEvents;
        ++executed;
        event->process();
        if (event->_owned && !event->_scheduled) {
            // Queue-owned one-shot that did not re-arm itself: park it
            // on the free-list and drop its captures now.
            park(event);
        }
        return true;
    }
    return false;
}

Tick
EventQueue::simulate(Tick limit)
{
    // One scope for the whole run keeps the per-event cost at zero.
    TraceTickScope trace_scope(&_curTick);
    while (!heap.empty()) {
        const HeapEntry &top = heap.top();
        Event *event = top.event;
        if (!event->_scheduled || event->_sequence != top.sequence) {
            heap.pop();
            continue;
        }
        if (top.when > limit)
            break;
        stepOne();
    }
    return _curTick;
}

} // namespace ifp::sim
