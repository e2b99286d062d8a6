/**
 * @file
 * Structured tracing: typed per-run event streams and exporters.
 *
 * Components emit TraceEvents (WG lifecycle transitions, SyncMon
 * condition activity, CP Monitor-Log traffic) into a per-run
 * TraceSink instead of printf-style text. The sink is replayed by the
 * exporters:
 *
 *  - writeChromeTrace(): Chrome-trace / Perfetto-loadable JSON with
 *    one track per CU (instant events) and async spans per WG
 *    (lifetime plus lifecycle phase segments),
 *  - the stats-JSON path (harness/observe.hh) for machine-readable
 *    end-of-run statistics.
 *
 * Tracing must be zero-cost when disabled: every emission site goes
 * through the inline emitTrace() helper, which compiles down to a
 * single null-pointer test when no sink is installed. A run enables
 * tracing via core::RunConfig::traceEnabled; each GpuSystem owns its
 * sink, so parallel sweep workers never share trace state.
 *
 * StallReason also keys the per-WG stall-cycle accounting (the
 * observability twin of Figure 11): every tick of a WG's life between
 * creation and completion is attributed to exactly one reason, so the
 * per-reason totals partition the WG's lifetime.
 */

#ifndef IFP_SIM_TRACE_SINK_HH
#define IFP_SIM_TRACE_SINK_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/types.hh"

namespace ifp::sim {

/**
 * Where a work-group's cycles go. Running means useful work; every
 * other value is a stall. The enum indexes the per-WG accounting
 * arrays and the per-policy breakdown vectors.
 */
enum class StallReason : std::uint8_t
{
    Running,        //!< issuing useful work
    Spin,           //!< s_sleep backoff spinning between retries
    Waiting,        //!< waiting on a sync condition (stalled/swapped)
    SaveRestore,    //!< context save or restore in flight
    DispatchQueue,  //!< runnable but waiting for CU resources
    Memory,         //!< all live wavefronts blocked on memory
};

constexpr std::size_t numStallReasons = 6;

/** Printable name of a StallReason. */
const char *stallReasonName(StallReason reason);

/** Array index of a StallReason. */
constexpr std::size_t
stallIndex(StallReason reason)
{
    return static_cast<std::size_t>(reason);
}

/** The typed events components emit. */
enum class TraceEventKind : std::uint8_t
{
    WgDispatched,   //!< fresh WG placed on a CU
    WgActivated,    //!< wavefronts became runnable (fresh or restored)
    WgStalled,      //!< waiting policy put the WG into WaitSync
    WgSwitchOut,    //!< context save started (drain begins)
    WgSwitchedOut,  //!< context saved, resources freed
    WgResumed,      //!< condition met / rescue resumed the WG
    WgSwapIn,       //!< context restore started
    WgCompleted,    //!< all wavefronts halted
    WgPreempted,    //!< forcibly pre-empted (CU loss)
    CondArmed,      //!< SyncMon registered a waiting condition
    CondFired,      //!< SyncMon resumed waiters of a met condition
    CondSpilled,    //!< condition spilled towards the Monitor Log
    LogAbsorb,      //!< CP Monitor Log absorbed a spilled condition
    LogDrain,       //!< CP drained log entries into the monitor table
    CuOffline,      //!< CU lost to kernel-level scheduling
    CuOnline,       //!< CU restored to the schedulable pool
    FaultInjected,  //!< fault-plan event fired (value = FaultKind)
    KernelEnqueued,   //!< dispatch context arrived (value = ctx id)
    KernelAdmitted,   //!< context made resident (value = ctx id)
    KernelPreempted,  //!< a context's WG was evicted (value = ctx id)
    KernelCompleted,  //!< every WG of the context done (value = ctx id)
};

/** Printable name of a TraceEventKind. */
const char *traceEventKindName(TraceEventKind kind);

/** One structured trace record. */
struct TraceEvent
{
    Tick tick = 0;
    TraceEventKind kind{};
    StallReason reason = StallReason::Running;
    std::int32_t wg = -1;     //!< work-group id, -1 when n/a
    std::int32_t cu = -1;     //!< compute unit id, -1 when n/a
    std::uint64_t addr = 0;   //!< condition address, 0 when n/a
    std::int64_t value = 0;   //!< expected value / count payload
};

/**
 * Per-run collector of TraceEvents. One sink per GpuSystem, confined
 * to that system's thread like its event queue, so it needs no
 * locking; events arrive in tick order because the queue executes in
 * tick order.
 */
class TraceSink
{
  public:
    void record(const TraceEvent &event) { eventsVec.push_back(event); }

    const std::vector<TraceEvent> &events() const { return eventsVec; }
    std::size_t size() const { return eventsVec.size(); }
    void clear() { eventsVec.clear(); }

    /**
     * Export as Chrome-trace JSON (load in Perfetto / chrome://tracing
     * or ui.perfetto.dev): one named track per CU carrying instant
     * events, one pair of async span streams per WG (lifetime and
     * lifecycle phases), and separate SyncMon / CP processes.
     * Timestamps are microseconds of simulated time. One compact
     * object with schema "ifp-trace-v1".
     */
    void writeChromeTrace(std::ostream &os, unsigned num_cus) const;

  private:
    std::vector<TraceEvent> eventsVec;
};

/**
 * The emission helper every instrumentation site uses. With tracing
 * disabled @p sink is null and this inlines to one predictable branch
 * — the "compile-time-inlined null sink" that keeps traced builds
 * free when the feature is off.
 */
inline void
emitTrace(TraceSink *sink, Tick tick, TraceEventKind kind, int wg = -1,
          int cu = -1, StallReason reason = StallReason::Running,
          std::uint64_t addr = 0, std::int64_t value = 0)
{
    if (sink) {
        sink->record(TraceEvent{tick, kind, reason,
                                static_cast<std::int32_t>(wg),
                                static_cast<std::int32_t>(cu), addr,
                                value});
    }
}

} // namespace ifp::sim

#endif // IFP_SIM_TRACE_SINK_HH
