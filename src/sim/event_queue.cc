#include "sim/event_queue.hh"

#include <bit>

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

inline const EventQueue::HeapEntry *
EventQueue::front(int &source) const
{
    const HeapEntry *min = nullptr;
    if (!heap.empty()) {
        min = &heap.top();
        source = heapSource;
    }
    for (unsigned mask = laneMask; mask != 0; mask &= mask - 1) {
        const unsigned lane = std::countr_zero(mask);
        const HeapEntry &head = lanes[lane].front();
        if (min == nullptr || *min > head) {
            min = &head;
            source = static_cast<int>(lane);
        }
    }
    return min;
}

inline void
EventQueue::popFront(int source)
{
    if (source == heapSource) {
        heap.pop();
        return;
    }
    RingQueue<HeapEntry> &lane = lanes[source];
    lane.pop_front();
    if (lane.empty())
        laneMask &= ~(1u << source);
}

void
EventQueue::clear()
{
    // Pop in front order, the order the events would have run, so
    // one-shots park in that order whatever lane or heap held them.
    int source = heapSource;
    while (const HeapEntry *head = front(source)) {
        const HeapEntry entry = *head;
        popFront(source);
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
    const HeapEntry entry{when, event->_sequence, event};
    // A lane holds one delay at a time; since curTick() never falls,
    // appending an entry of the lane's delay keeps the lane sorted.
    // An entry whose lane holds another delay takes the heap.
    const Tick delay = when - _curTick;
    const unsigned lane = laneOf(delay);
    const unsigned bit = 1u << lane;
    if ((laneMask & bit) == 0) {
        laneDelay[lane] = delay;
        laneMask |= bit;
        lanes[lane].push_back(entry);
    } else if (laneDelay[lane] == delay) {
        lanes[lane].push_back(entry);
    } else {
        heap.push(entry);
    }
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
        // recycle it now. The stale lane or heap entry is harmless — reuse
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
    // entries for a recycled event are harmless because reuse
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
EventQueue::runNext(Tick limit)
{
    int source = heapSource;
    while (const HeapEntry *head = front(source)) {
        const HeapEntry entry = *head;
        Event *event = entry.event;
        // Stale entry: event was descheduled (and possibly rescheduled
        // with a newer sequence number).
        if (!event->_scheduled || event->_sequence != entry.sequence) {
            popFront(source);
            continue;
        }
        if (entry.when > limit)
            return false;
        popFront(source);

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
