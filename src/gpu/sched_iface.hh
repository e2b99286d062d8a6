/**
 * @file
 * Narrow interfaces that decouple the GPU core from the Command
 * Processor (context switching, admission) and the waiting-policy
 * controllers.
 */

#ifndef IFP_GPU_SCHED_IFACE_HH
#define IFP_GPU_SCHED_IFACE_HH

#include <functional>

#include "sim/types.hh"

namespace ifp::gpu {

class WorkGroup;

/**
 * View of the WG scheduler exposed to waiting-policy controllers
 * (SyncMon, Timeout) and the Command Processor.
 */
class WgScheduler
{
  public:
    virtual ~WgScheduler() = default;

    /**
     * True when WGs exist that could use the resources a waiting WG
     * would free: not-yet-dispatched WGs or swapped-out ready WGs.
     * This is the paper's oversubscription test — WGs only context
     * switch out when someone else can run.
     */
    virtual bool hasStarvedWork() const = 0;

    /**
     * A waiting WG's condition was (or may have been) met: wake it.
     * Stalled WGs resume in place; swapped-out WGs are queued for
     * context switch-in. Mesa semantics: the WG re-checks its
     * condition after resuming.
     */
    virtual void resumeWg(int wg_id) = 0;

    /** Number of WGs currently waiting (stalled or switched out). */
    virtual unsigned numWaitingWgs() const = 0;
};

/**
 * Context-switch services the dispatcher obtains from the Command
 * Processor.
 */
class ContextSwitcher
{
  public:
    virtual ~ContextSwitcher() = default;

    /** Stream @p wg's context out to memory; @p done fires after. */
    virtual void saveContext(WorkGroup *wg,
                             std::function<void()> done) = 0;

    /** Stream @p wg's context back in; @p done fires after. */
    virtual void restoreContext(WorkGroup *wg,
                                std::function<void()> done) = 0;

    /** Arm the CP rescue timer for a swapped-out waiting WG. */
    virtual void armRescue(int wg_id, sim::Cycles timeout_cycles) = 0;

    /** Cancel a previously armed rescue (the WG resumed). */
    virtual void cancelRescue(int wg_id) = 0;
};

/** Events a CU reports to the dispatcher. */
class CuListener
{
  public:
    virtual ~CuListener() = default;

    /** All wavefronts of @p wg executed halt. */
    virtual void wgCompleted(WorkGroup *wg) = 0;

    /**
     * The waiting policy asked @p wg to yield its resources.
     * @p rescue_cycles is the backstop timeout to arm at the CP.
     */
    virtual void wgWantsSwitch(WorkGroup *wg,
                               sim::Cycles rescue_cycles) = 0;
};

/**
 * The admission/preemption policy the dispatcher notifies about
 * context and CU availability changes. Implemented by the Command
 * Processor's AdmissionScheduler (cp/admission.hh); every hook runs
 * synchronously inside the notifying call, so admission decisions
 * never schedule events of their own and runs stay deterministic.
 */
class AdmissionPolicy
{
  public:
    virtual ~AdmissionPolicy() = default;

    /** @p ctx_id arrived (entered the Queued state). */
    virtual void contextEnqueued(int ctx_id) = 0;

    /** @p ctx_id completed; its CUs are reclaimable. */
    virtual void contextCompleted(int ctx_id) = 0;

    /** A CU went offline or came back (fault/churn). */
    virtual void cuAvailabilityChanged() = 0;
};

} // namespace ifp::gpu

#endif // IFP_GPU_SCHED_IFACE_HH
