/**
 * @file
 * The Timeout waiting policy (§IV.C.ii): simplistic hardware support.
 *
 * No monitor exists. A failed waiting atomic simply stalls the WG for
 * a fixed interval (non-oversubscribed) or context switches it out
 * for the interval (oversubscribed), after which the WG retries —
 * there is no notification when the condition is actually met. The
 * paper shows no single interval works for every primitive (Figure 8)
 * and some intervals are much worse than busy-waiting.
 */

#ifndef IFP_SYNCMON_TIMEOUT_CONTROLLER_HH
#define IFP_SYNCMON_TIMEOUT_CONTROLLER_HH

#include "gpu/sched_iface.hh"
#include "mem/sync_hooks.hh"
#include "sim/types.hh"

namespace ifp::syncmon {

/** Fixed-interval timeout waiting policy. */
class TimeoutController : public mem::SyncObserver
{
  public:
    explicit TimeoutController(sim::Cycles interval_cycles)
        : interval(interval_cycles)
    {}

    void setScheduler(gpu::WgScheduler *s) { scheduler = s; }

    mem::WaitDecision
    onWaitFail(const mem::MemRequest &req,
               mem::MemValue observed) override
    {
        (void)req;
        (void)observed;
        return decide();
    }

    mem::WaitDecision
    onArmWait(const mem::MemRequest &req) override
    {
        (void)req;
        return decide();
    }

    void
    onMonitoredAccess(mem::Addr addr, mem::MemValue new_value,
                      bool is_update, int by_wg) override
    {
        (void)addr;
        (void)new_value;
        (void)is_update;
        (void)by_wg;
        // No monitor: nothing ever notifies.
    }

    mem::WaitDecision
    onStallTimeout(int wg_id, mem::Addr addr,
                   mem::MemValue expected) override
    {
        (void)wg_id;
        (void)addr;
        (void)expected;
        // The interval elapsed: resume and retry (Mesa semantics).
        return {mem::WaitKind::Proceed, 0};
    }

  private:
    mem::WaitDecision
    decide()
    {
        bool starved = scheduler && scheduler->hasStarvedWork();
        if (starved)
            return {mem::WaitKind::Switch, interval};
        return {mem::WaitKind::Stall, interval};
    }

    sim::Cycles interval;
    gpu::WgScheduler *scheduler = nullptr;
};

} // namespace ifp::syncmon

#endif // IFP_SYNCMON_TIMEOUT_CONTROLLER_HH
