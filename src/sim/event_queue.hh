/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue executes (tick, sequence, event) triples in order.
 * Events scheduled for the same tick run in the order they were
 * scheduled, which keeps the simulator deterministic. Most schedules
 * repeat a handful of delays (a CU tick one cycle ahead, a fixed cache
 * latency), so a few FIFO lanes sit in front of a binary min-heap:
 * an entry joins the lane of its delay (when - curTick()) if that lane
 * is empty or already holds that delay, and the heap otherwise. As
 * curTick() never decreases, entries sharing a delay arrive sorted by
 * (tick, sequence), so every lane is sorted by construction and the
 * queue runs the least front among the lanes and the heap: the same
 * order a single heap gives, at a ring push and pop per lane entry.
 *
 * Two event flavours are provided:
 *  - Event: subclass and override process().
 *  - LambdaEvent / EventQueue::schedule(tick, fn): wrap a callable.
 *
 * An event object is owned by its creator and must outlive its scheduled
 * occurrence (or a clear()); the queue never deletes events. LambdaEvents
 * created via the schedule(tick, fn) convenience are owned by the queue
 * and are recycled through a free-list once they fire: a one-shot
 * allocates at most once per *concurrently pending* lambda, not once per
 * schedule. Descriptions are string literals, read only by asserts.
 *
 * Reentrancy contract: an EventQueue is confined to one thread at a
 * time, but any number of queues may be live concurrently on
 * different threads (one per parallel-sweep worker). A queue touches
 * no global state, so queues never interfere.
 */

#ifndef IFP_SIM_EVENT_QUEUE_HH
#define IFP_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/ring_queue.hh"
#include "sim/small_func.hh"
#include "sim/types.hh"

namespace ifp::sim {

class EventQueue;

/**
 * Base class for all schedulable events.
 */
class Event
{
  public:
    virtual ~Event();

    /** Callback invoked when the event's tick is reached. */
    virtual void process() = 0;

    /** Human-readable description, read only by assert messages. */
    virtual const char *description() const { return "generic event"; }

    /** True while the event sits in some queue. */
    bool scheduled() const { return _scheduled; }

    /** Tick this event is scheduled for (valid only when scheduled). */
    Tick when() const { return _when; }

  private:
    friend class EventQueue;

    bool _scheduled = false;
    bool _owned = false;   //!< queue-owned one-shot, recyclable
    Tick _when = 0;
    std::uint64_t _sequence = 0;
};

/** Event wrapping an arbitrary callable. */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(SmallFunc fn, const char *desc = "lambda event")
        : callback(std::move(fn)), desc(desc)
    {}

    void process() override { callback(); }

    /** Re-arm a recycled one-shot with a new callable. */
    void
    reset(SmallFunc fn, const char *d)
    {
        callback = std::move(fn);
        desc = d;
    }

    /** Drop the callable so captured resources release promptly. */
    void release() { callback = nullptr; }

    const char *description() const override { return desc; }

  private:
    SmallFunc callback;
    const char *desc;
};

/**
 * The global ordering structure of the simulation.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Schedule @p event at absolute tick @p when (>= curTick). */
    void schedule(Event *event, Tick when);

    /**
     * Remove a scheduled event from the queue. A queue-owned one-shot
     * (from schedule(Tick, fn)) is released and recycled immediately:
     * its captured resources drop now and the LambdaEvent returns to
     * the free-list instead of being stranded behind its stale heap
     * entry. The handle must not be used again after descheduling.
     */
    void deschedule(Event *event);

    /** Deschedule (if needed) and reschedule at a new tick. */
    void reschedule(Event *event, Tick when);

    /**
     * Convenience: schedule a one-shot callable. The queue owns the
     * temporary event and recycles it after execution. The returned
     * handle stays valid until the event fires or is descheduled —
     * use it only to deschedule() the one-shot early. @p desc is a
     * string literal.
     */
    Event *schedule(Tick when, SmallFunc fn,
                    const char *desc = "lambda event");

    /**
     * Drop every pending event unrun: owners may then destroy theirs
     * (~GpuSystem does, before the devices die), and one-shots release
     * their captures to the free-list. Time does not move.
     */
    void clear();

    /**
     * True when no entries remain, counting the stale entries of
     * descheduled events that have not reached the front yet.
     */
    bool empty() const { return heap.empty() && laneMask == 0; }

    /** Number of pending events. */
    std::size_t size() const { return liveEvents; }

    /**
     * Run until the queue drains or @p limit is exceeded.
     * @return the tick of the last executed event.
     */
    Tick simulate(Tick limit = maxTick);

    /** Execute exactly one event, if any. @return true if one ran. */
    bool step();

    /** Total number of events executed so far. */
    std::uint64_t numExecuted() const { return executed; }

    /** Distinct one-shot LambdaEvents ever allocated by this queue. */
    std::size_t ownedPoolSize() const { return owned.size(); }

    /** Fired one-shots currently parked for reuse. */
    std::size_t freeListSize() const { return freeList.size(); }

  private:
    /**
     * @p recycleOwned false keeps a queue-owned one-shot out of the
     * free-list (reschedule() re-arms the same object immediately).
     */
    void descheduleImpl(Event *event, bool recycleOwned);

    /** Drop a queue-owned one-shot's captures; free-list it. */
    void park(Event *event);

    /**
     * Pop entries in (when, sequence) order, skipping stale ones, and
     * run the first live one if it is due at or before @p limit.
     * @return true if an event ran. step() and simulate() share it.
     */
    bool runNext(Tick limit);

    struct HeapEntry
    {
        Tick when = 0;
        std::uint64_t sequence = 0;
        Event *event = nullptr;

        bool
        operator>(const HeapEntry &other) const
        {
            return when != other.when ? when > other.when
                                      : sequence > other.sequence;
        }
    };

    using Heap = std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                                     std::greater<HeapEntry>>;

    /** FIFO lanes in front of the heap. */
    static constexpr unsigned numLanes = 8;
    /** front()'s source for the heap; lanes are 0 .. numLanes-1. */
    static constexpr int heapSource = numLanes;

    /**
     * Direct-mapped lane of @p delay: the top bits of a multiplicative
     * hash, so delays that are all multiples of a clock period still
     * spread. The multiplier (splitmix64's) puts the default machine's
     * common delays of 1, 4, 50 and 146 GPU cycles in four different
     * lanes; the golden-ratio one maps 1 and 4 cycles to one lane.
     */
    static unsigned
    laneOf(Tick delay)
    {
        return static_cast<unsigned>(
            (delay * 0xBF58476D1CE4E5B9ULL) >> (64 - 3));
    }
    static_assert(numLanes == 8, "laneOf() takes the top 3 bits");

    /**
     * The least (when, sequence) entry among the lane fronts and the
     * heap top, or nullptr when the queue holds none; @p source is
     * set to where it sits, a lane index or heapSource.
     */
    const HeapEntry *front(int &source) const;

    /** Remove the front entry of @p source. */
    void popFront(int source);

    Heap heap;
    std::array<RingQueue<HeapEntry>, numLanes> lanes;
    /** The delay lanes[i] holds; meaningful while the lane is busy. */
    std::array<Tick, numLanes> laneDelay{};
    /** Bit i set iff lanes[i] holds at least one entry. */
    unsigned laneMask = 0;
    /** Owns every one-shot this queue ever allocated (pool + live). */
    std::vector<std::unique_ptr<LambdaEvent>> owned;
    /** Fired one-shots ready for the next schedule(Tick, fn). */
    std::vector<LambdaEvent *> freeList;
    Tick _curTick = 0;
    std::uint64_t nextSequence = 0;
    std::uint64_t executed = 0;
    std::size_t liveEvents = 0;
};

} // namespace ifp::sim

#endif // IFP_SIM_EVENT_QUEUE_HH
