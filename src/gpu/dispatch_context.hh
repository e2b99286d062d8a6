/**
 * @file
 * DispatchContext: one kernel launch as a first-class schedulable
 * entity.
 *
 * The multi-tenant serving redesign turns "one kernel, one grid" into
 * per-kernel dispatch contexts: the Dispatcher owns a set of
 * concurrently-resident contexts, each with its own WG id range,
 * dispatch queues, completion tracking, stat shadows and priority.
 * The Command Processor's AdmissionScheduler decides which contexts
 * are resident and carves the CUs between them; the dispatcher only
 * places WGs onto CUs its context owns.
 *
 * Contexts are created up front (enqueueKernelAt pre-creates them so
 * arrival events carry no payload) and pass through:
 *
 *     Created --arrival--> Queued --admission--> Resident --> Complete
 *
 * WG ids are globally unique and dense across contexts, so everything
 * keyed by WG id (SyncMon waiters, CP rescue deadlines, CU drain
 * callbacks) works unchanged in multi-kernel runs.
 */

#ifndef IFP_GPU_DISPATCH_CONTEXT_HH
#define IFP_GPU_DISPATCH_CONTEXT_HH

#include <cstdint>
#include <deque>
#include <string>

#include "isa/kernel.hh"
#include "sim/types.hh"

namespace ifp::gpu {

/** Per-launch scheduling parameters of one enqueued kernel. */
struct LaunchOptions
{
    /** Client identity, for fairness accounting ("" = anonymous). */
    std::string tenant;
    /** Higher runs first; ties broken by arrival, then ctx id. */
    int priority = 0;
    /**
     * Turnaround SLO in GPU cycles measured from enqueue (0 = none).
     * Only recorded — admission does not deadline-schedule.
     */
    sim::Cycles deadlineCycles = 0;
};

/** Lifecycle of a dispatch context. */
enum class ContextState
{
    Created,   //!< pre-created, arrival event not fired yet
    Queued,    //!< arrived, waiting for admission
    Resident,  //!< admitted, owns CUs, WGs dispatchable
    Complete,  //!< every WG done
};

/** Printable name of a ContextState. */
const char *contextStateName(ContextState state);

/** One kernel launch under multi-kernel scheduling. */
class DispatchContext
{
  public:
    DispatchContext(int ctx_id, isa::Kernel k, LaunchOptions launch_opts,
                    sim::Tick enqueue_tick)
        : id(ctx_id), kernel(std::move(k)), opts(std::move(launch_opts)),
          enqueueTick(enqueue_tick)
    {
    }

    const int id;
    /**
     * By-value copy: serving enqueues outlive the caller's kernel
     * object, and every WorkGroup of the context points into this
     * copy.
     */
    const isa::Kernel kernel;
    const LaunchOptions opts;

    ContextState state = ContextState::Created;

    /// @name Lifecycle timestamps
    /// @{
    sim::Tick enqueueTick = 0;            //!< arrival time
    sim::Tick admitTick = 0;              //!< made resident
    sim::Tick firstDispatchTick = sim::maxTick;
    sim::Tick completeTick = 0;
    /// @}

    /// @name WG bookkeeping
    /// @{
    int firstWg = 0;          //!< first global WG id of the context
    unsigned numWgs = 0;
    unsigned completed = 0;

    /** Fresh WGs awaiting their first dispatch, in id order. */
    std::deque<int> pendingFresh;
    /** Swapped-out WGs eligible to swap back in, in resume order. */
    std::deque<int> readySwapIn;

    bool contains(int wg_id) const
    {
        return wg_id >= firstWg &&
               wg_id < firstWg + static_cast<int>(numWgs);
    }

    bool complete() const { return completed == numWgs; }

    /** WGs not yet Done (the context's CU demand). */
    unsigned liveWgs() const { return numWgs - completed; }
    /// @}

    /// @name Stat shadows (the per-kernel view of the global Scalars)
    /// @{
    std::uint64_t dispatches = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t preemptions = 0;   //!< forced WG preemptions
    std::uint64_t cusGained = 0;     //!< CU-ownership grants
    std::uint64_t cusLost = 0;       //!< CU-ownership revocations
    /// @}
};

} // namespace ifp::gpu

#endif // IFP_GPU_DISPATCH_CONTEXT_HH
