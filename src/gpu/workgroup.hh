/**
 * @file
 * Work-group: the unit of dispatch, synchronization and context
 * switching.
 *
 * A WG owns its wavefronts and LDS image, tracks its lifecycle state
 * (the paper's stalled / switching-out / waiting / ready / switching-in
 * states), its waiting condition, and the running-vs-waiting time
 * accounting behind Figure 11.
 */

#ifndef IFP_GPU_WORKGROUP_HH
#define IFP_GPU_WORKGROUP_HH

#include <array>
#include <memory>
#include <vector>

#include "gpu/wavefront.hh"
#include "isa/kernel.hh"
#include "mem/atomic_op.hh"
#include "sim/trace_sink.hh"
#include "sim/types.hh"

namespace ifp::gpu {

/** Lifecycle of a work-group. */
enum class WgState
{
    Pending,       //!< created, not yet dispatched
    Dispatching,   //!< reserved on a CU, launch latency elapsing
    Running,       //!< resident (wavefronts may individually wait)
    SwitchingOut,  //!< context save in flight
    SwappedOut,    //!< context in memory, waiting on a condition
    ReadySwapIn,   //!< context in memory, eligible to run
    SwitchingIn,   //!< context restore in flight
    Done,          //!< all wavefronts halted
};

/** Printable name of a WgState. */
const char *wgStateName(WgState state);

/** One work-group instance of a kernel launch. */
class WorkGroup
{
  public:
    /**
     * @p create_tick is when the WG's stall-reason clock starts:
     * launch time for the legacy single-kernel path (tick 0), the
     * arrival tick for kernels enqueued mid-run by the serving layer.
     *
     * @p abi_wg_id is the work-group index the kernel sees in rWgId:
     * the *context-local* index in [0, kernel.numWgs), while @p id is
     * globally unique across every concurrently-resident kernel.
     * Defaults to @p id (the legacy single-kernel case, where the two
     * coincide).
     */
    WorkGroup(int id, const isa::Kernel &kernel,
              sim::Tick create_tick = 0, int abi_wg_id = -1);

    /// @name Identity and placement
    /// @{
    int id;
    const isa::Kernel *kernel;
    int ctxId = 0;               //!< owning DispatchContext
    int cuId = -1;               //!< resident CU, -1 otherwise
    /// @}

    /**
     * Enter lifecycle state @p next at time @p now. The single entry
     * point for state changes, so the stall-reason clock below always
     * re-buckets on a transition. Entering Done closes the books.
     */
    void setState(WgState next, sim::Tick now);

    WgState state = WgState::Pending;

    /**
     * Bumped whenever a pending dispatch is invalidated (the host CU
     * went offline before the launch latency elapsed). The deferred
     * activation event captures the epoch at schedule time and fires
     * only if it still matches, so a re-queued WG is never activated
     * on the CU it was evicted from.
     */
    std::uint64_t dispatchEpoch = 0;

    std::vector<std::unique_ptr<Wavefront>> wavefronts;

    /// @name Intra-WG barrier
    /// @{
    unsigned barrierArrived = 0;
    /// @}

    /** LDS image (functional). */
    std::vector<std::uint8_t> lds;

    /// @name Waiting condition (for CP tracking / rescue / debug)
    /// @{
    bool hasWaitCond = false;
    mem::Addr waitAddr = 0;
    mem::MemValue waitExpected = 0;
    /** Set while a condition-met resume should follow a swap-out. */
    bool resumePending = false;
    /// @}

    /// @name Accounting (Figure 11 / Figure 15)
    /// @{
    sim::Tick dispatchTick = 0;
    sim::Tick completeTick = 0;
    sim::Tick waitingTicks = 0;   //!< accumulated sync-wait time
    sim::Tick waitStartTick = 0;
    unsigned waitingWfs = 0;      //!< WFs currently in a waiting state
    unsigned contextSaves = 0;
    unsigned contextRestores = 0;
    /// @}

    /// @name Stall-reason accounting (observability layer)
    ///
    /// Every tick from WG creation to completion (or end of run) is
    /// attributed to exactly one StallReason bucket, so the buckets
    /// partition the WG's lifetime: sum(reasonTicks) == lifetime.
    /// While Running, the bucket is refined from wavefront-level
    /// counters (sync waiters > sleepers > all-blocked-on-memory).
    /// @{
    std::array<sim::Tick, sim::numStallReasons> reasonTicks{};
    unsigned sleepingWfs = 0;     //!< subset of waitingWfs in s_sleep
    unsigned memWaitWfs = 0;      //!< WFs blocked on a memory response

    /** Re-derive the Running sub-bucket after a WF counter changed. */
    void refreshRunBucket(sim::Tick now);

    /** Stop the stall clock (at completion or end of simulation). */
    void closeAccounting(sim::Tick now);
    /// @}

    unsigned doneWfs = 0;

    /** All wavefronts have halted. */
    bool complete() const { return doneWfs == wavefronts.size(); }

    /** LDS loads/stores (functional, 8-byte). */
    std::int64_t ldsRead(std::uint64_t offset) const;
    void ldsWrite(std::uint64_t offset, std::int64_t value);

    /**
     * A wavefront entered a sync-waiting state (WaitSync / Sleeping /
     * swapped out). Starts the waiting clock on the 0 -> 1 transition.
     * @p spin marks an s_sleep backoff spin (Spin bucket) as opposed
     * to a hardware-held sync wait (Waiting bucket).
     */
    void beginWait(sim::Tick now, bool spin = false);

    /** A waiting wavefront resumed; stops the clock on 1 -> 0. */
    void endWait(sim::Tick now, bool spin = false);

  private:
    /** Accumulate into the open bucket and switch to @p next. */
    void switchBucket(sim::StallReason next, sim::Tick now);

    /** The Running-state sub-bucket implied by current WF counters. */
    sim::StallReason runBucketNow() const;

    sim::StallReason bucket = sim::StallReason::DispatchQueue;
    sim::Tick bucketSince = 0;    //!< clock starts at the create tick
    bool booksClosed = false;
};

} // namespace ifp::gpu

#endif // IFP_GPU_WORKGROUP_HH
