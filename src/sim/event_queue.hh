/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue runs events in (tick, sequence) order: events due at
 * one tick run in the order they were scheduled, so runs are deterministic.
 *
 * Pending events sit on a timing wheel (a calendar queue, R. Brown,
 * CACM 1988) of numBuckets = 512 buckets of 2^bucketBits = 256 ticks,
 * a span of 131,072 ticks (about 262 GPU cycles at 2 GHz). An event
 * due before wheelEnd(), the end of the span starting at curTick()'s
 * bucket, joins bucket (when >> 8) & 511, which then holds only its
 * 256-tick interval: an intrusive singly-linked FIFO threaded through
 * the events and sorted by (tick, sequence). An insert appends when
 * the tail is not due later, and otherwise walks from the head; a
 * bucket is narrower than the 500-tick GPU clock period, so clock
 * edges always append. An occupancy bitmap finds the next busy
 * bucket, whose head runs next. Later events wait in a plain binary
 * min-heap of Event pointers ordered by (tick, sequence). Whenever
 * curTick() advances, the far events the wheel now covers move to
 * their buckets in (tick, sequence) order before the next event runs.
 * No insert can reach a bucket before it enters the span, so a bucket
 * receives its far events before any direct insert, and the order
 * stays exact.
 *
 * An event leaves the queue only by running or through clear(). The
 * models never cancel a pending event: a timer that may go stale
 * checks an epoch when it fires (Wavefront::waitEpoch in
 * ComputeUnit::scheduleWake and scheduleRescue,
 * WorkGroup::dispatchEpoch in Dispatcher::startFresh).
 *
 * Subclass Event and override process(), or wrap a callable with
 * schedule(tick, fn). Events are owned by their creators and must
 * outlive their scheduled occurrence (or a clear()), except one-shot
 * LambdaEvents: the queue owns those and recycles them through a
 * free-list, allocating once per *concurrently pending* one-shot.
 * Descriptions are string literals, read only by asserts.
 *
 * An EventQueue is confined to one thread at a time; queues on other
 * threads (one per sweep worker) never interfere: none touches globals.
 */

#ifndef IFP_SIM_EVENT_QUEUE_HH
#define IFP_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/small_func.hh"
#include "sim/types.hh"

namespace ifp::sim {

/** Base class for all schedulable events. */
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

  private:
    friend class EventQueue;

    /** Next event in its bucket, while on the wheel. */
    Event *_next = nullptr;
    Tick _when = 0;
    std::uint64_t _sequence = 0;
    bool _scheduled = false;
    bool _owned = false;   //!< queue-owned one-shot, recyclable
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

/** The global ordering structure of the simulation. */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue() { clear(); }  // no event dies scheduled

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Schedule @p event at absolute tick @p when (>= curTick). */
    void schedule(Event *event, Tick when);

    /**
     * Convenience: schedule a one-shot callable. The queue owns the
     * temporary event and recycles it after execution. @p desc is a
     * string literal.
     */
    void schedule(Tick when, SmallFunc fn,
                  const char *desc = "lambda event");

    /**
     * Drop every pending event unrun: owners may then destroy theirs
     * (~GpuSystem does, before the devices die), and one-shots release
     * their captures to the free-list. Time does not move.
     */
    void clear();

    /** True when no event is pending. */
    bool empty() const { return liveEvents == 0; }

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
    /** log2 of a bucket's width in ticks. */
    static constexpr unsigned bucketBits = 8;
    /** Buckets on the wheel; a power of two and a multiple of 64. */
    static constexpr unsigned numBuckets = 512;

    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    static unsigned
    bucketOf(Tick when)
    {
        return static_cast<unsigned>(when >> bucketBits) & (numBuckets - 1);
    }

    /** First tick past the wheel's span: far events are due from it. */
    Tick
    wheelEnd() const
    {
        return ((_curTick >> bucketBits) + numBuckets) << bucketBits;
    }

    /** Far-heap order: @p a runs after @p b; the front runs first. */
    struct RunsLater
    {
        bool
        operator()(const Event *a, const Event *b) const
        {
            return a->_when != b->_when ? a->_when > b->_when
                                        : a->_sequence > b->_sequence;
        }
    };

    /** Drop a queue-owned one-shot's captures; free-list it. */
    void park(Event *event);
    /** Put @p event, the newest in its bucket, into the bucket. */
    void link(Event *event);
    /** Move the far events due before wheelEnd() to their buckets. */
    void migrate();

    /** Move time to @p when, and the far events it brings in range. */
    void
    advanceTo(Tick when)
    {
        _curTick = when;
        if (!far.empty() && far.front()->_when < wheelEnd())
            migrate();
    }

    /** Run the first event if due by @p limit; step() and simulate(). */
    bool runNext(Tick limit);

    std::array<Bucket, numBuckets> buckets{};
    std::array<std::uint64_t, numBuckets / 64> busy{};  //!< busy buckets
    /** Events due at or after wheelEnd(), a heap under RunsLater. */
    std::vector<Event *> far;
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
