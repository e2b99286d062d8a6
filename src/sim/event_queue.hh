/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue keeps a min-heap of (tick, sequence, event) triples and
 * executes them in order. Events scheduled for the same tick run in the
 * order they were scheduled, which keeps the simulator deterministic.
 *
 * Two event flavours are provided:
 *  - Event: subclass and override process().
 *  - LambdaEvent / EventQueue::schedule(tick, fn): wrap a callable.
 *
 * An event object is owned by its creator and must outlive its scheduled
 * occurrence; the queue never deletes events. LambdaEvents created via
 * the schedule(tick, fn) convenience are owned by the queue and are
 * recycled through a free-list once they fire: a one-shot allocates at
 * most once per *concurrently pending* lambda, not once per schedule.
 *
 * Reentrancy contract: an EventQueue is confined to one thread at a
 * time, but any number of queues may be live concurrently on
 * different threads (one per parallel-sweep worker). The only global
 * the queue touches — the trace-tick hook — is thread-local and is
 * held via an RAII TraceTickScope opened around step()/simulate(), so
 * interleaved queues on one thread and concurrent queues on many
 * threads both trace their own ticks, and a dying queue never leaves
 * a hook behind.
 */

#ifndef IFP_SIM_EVENT_QUEUE_HH
#define IFP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

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

    /** Human-readable description, used in traces. */
    virtual std::string description() const { return "generic event"; }

    /** True while the event sits in some queue. */
    bool scheduled() const { return _scheduled; }

    /** Tick this event is scheduled for (valid only when scheduled). */
    Tick when() const { return _when; }

  private:
    friend class EventQueue;

    bool _scheduled = false;
    bool _squashed = false;
    bool _owned = false;   //!< queue-owned one-shot, recyclable
    Tick _when = 0;
    std::uint64_t _sequence = 0;
};

/** Event wrapping an arbitrary callable. */
class LambdaEvent : public Event
{
  public:
    /**
     * Retained description capacity cap: a recycled one-shot keeps
     * its desc string's buffer for reuse, but not past this size, so
     * a single verbose scheduler cannot pin large buffers in the
     * free-list forever. The cap is above libstdc++'s SSO threshold;
     * the hot-path device descriptions all fit inline.
     */
    static constexpr std::size_t descCapacityCap = 32;

    explicit LambdaEvent(SmallFunc fn, std::string desc = "")
        : callback(std::move(fn)), desc(std::move(desc))
    {}

    void process() override { callback(); }

    /** Re-arm a recycled one-shot with a new callable. */
    void
    reset(SmallFunc fn, std::string d)
    {
        callback = std::move(fn);
        desc = std::move(d);
    }

    /** Drop the callable so captured resources release promptly. */
    void
    release()
    {
        callback = nullptr;
        if (desc.capacity() > descCapacityCap)
            std::string().swap(desc);
        else
            desc.clear();
    }

    std::string
    description() const override
    {
        return desc.empty() ? "lambda event" : desc;
    }

  private:
    SmallFunc callback;
    std::string desc;
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
     * use it only to deschedule() the one-shot early.
     */
    Event *schedule(Tick when, SmallFunc fn, std::string desc = "");

    /** True when no events remain. */
    bool empty() const { return heap.empty(); }

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
    /** step() minus the trace-tick scope; simulate() loops on this. */
    bool stepOne();

    /**
     * @p recycleOwned false keeps a queue-owned one-shot out of the
     * free-list (reschedule() re-arms the same object immediately).
     */
    void descheduleImpl(Event *event, bool recycleOwned);

    struct HeapEntry
    {
        Tick when;
        std::uint64_t sequence;
        Event *event;

        bool
        operator>(const HeapEntry &other) const
        {
            return when != other.when ? when > other.when
                                      : sequence > other.sequence;
        }
    };

    using Heap = std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                                     std::greater<HeapEntry>>;

    Heap heap;
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
