/**
 * @file
 * Work-group dispatcher: WG ids, placement, completion tracking and
 * the resume paths of the paper's cooperative scheduling — for a set
 * of concurrently-resident kernels.
 *
 * The dispatcher owns one DispatchContext per enqueued kernel. WG ids
 * are globally unique and dense across contexts; each context keeps
 * its own fresh/swap-in queues and stat shadows. CU ownership is an
 * explicit map (`cuOwner`): the AdmissionPolicy (the CP's admission
 * scheduler) carves the CUs between resident contexts, and findHost()
 * only considers CUs the WG's context owns. Revoking a CU from a
 * context pre-empts its Running/Dispatching WGs through exactly the
 * drain/context-save machinery the §VI offline-CU scenario uses —
 * multi-tenant CU churn is the organic form of that fault.
 *
 * Fresh WGs dispatch in id order as resources permit. When a
 * waiting-policy controller asks a WG to yield (Switch decision) the
 * dispatcher orchestrates the drain / context-save / resource-free
 * sequence with the CU and the Command Processor; resumes go the
 * other way. The dispatcher is the one owner of WG and context
 * lifecycle: the run loop and serving reports read its lifecycle
 * record, and everything else observes it through the TraceSink.
 *
 * `swapInCapable` distinguishes the paper's Baseline from everything
 * else: current GPUs can pre-empt WGs (kernel-level scheduling) but
 * have no firmware to context switch an individual WG back *in* — that
 * capability is exactly what the paper adds via the CP. With it off,
 * swapped-out WGs are stranded and oversubscribed runs deadlock.
 */

#ifndef IFP_GPU_DISPATCHER_HH
#define IFP_GPU_DISPATCHER_HH

#include <memory>
#include <vector>

#include "gpu/compute_unit.hh"
#include "gpu/dispatch_context.hh"
#include "gpu/sched_iface.hh"
#include "gpu/workgroup.hh"
#include "sim/clocked.hh"
#include "sim/sched_oracle.hh"
#include "sim/stats.hh"

namespace ifp::gpu {

/** The global WG dispatcher. */
class Dispatcher : public sim::Clocked,
                   public WgScheduler,
                   public CuListener
{
  public:
    /**
     * @p switcher saves and restores WG contexts and arms rescues;
     * @p admission decides residency and CU ownership. Both are the
     * CP's (cp/command_processor.hh) and must outlive the dispatcher.
     */
    Dispatcher(std::string name, sim::EventQueue &eq,
               ContextSwitcher &switcher, AdmissionPolicy &admission);

    /// @name Wiring
    /// @{
    void setCus(std::vector<ComputeUnit *> cu_list);
    void setSwapInCapable(bool capable) { swapInCapable = capable; }
    void setTraceSink(sim::TraceSink *sink) { trace = sink; }

    /**
     * Schedule-choice oracle (sim/sched_oracle.hh) consulted for the
     * dispatch pick and CU placement. Null (the default) keeps the
     * stock deterministic order without building candidate lists.
     */
    void setSchedOracle(sim::SchedOracle *o) { oracle = o; }

    /**
     * Backstop rescue interval armed at the CP for any WG that ends
     * up switched out while waiting (in particular WGs pre-empted by
     * kernel-level scheduling, which never pass through a waiting-
     * policy decision).
     */
    void setDefaultRescueCycles(sim::Cycles cycles)
    {
        defaultRescueCycles = cycles;
    }
    /// @}

    /// @name Context lifecycle
    /// @{

    /**
     * Create the context and all its WGs (ids continue the global
     * dense range) without making it schedulable. @p enqueue_tick is
     * its arrival time — contextArrived() must fire at that tick.
     * @return the new context id.
     */
    int createContext(const isa::Kernel &kernel,
                      const LaunchOptions &opts,
                      sim::Tick enqueue_tick);

    /**
     * The context's arrival time came: enter the admission queue and
     * notify the AdmissionPolicy (which may admit it synchronously).
     */
    void contextArrived(int ctx_id);

    /**
     * Admission decision: make the context resident. WGs dispatch as
     * soon as the admission policy grants CUs via setCuAssignment().
     */
    void admitContext(int ctx_id);

    /**
     * Install a new CU-ownership map (`owner[cu]` = ctx id, -1 =
     * unowned). Revoked CUs pre-empt their Running/Dispatching WGs,
     * except halted ones (every wavefront done: their queued
     * completion frees the slot); granted CUs pick up pending work
     * immediately. Offline CUs keep their owner (nothing can run
     * there anyway).
     */
    void setCuAssignment(const std::vector<int> &owner);

    const std::vector<int> &cuAssignment() const { return cuOwner; }
    /// @}

    /// @name Lifecycle record (the run loop and serving reports)
    /// @{

    /** Contexts whose arrival fired. */
    unsigned numArrivedContexts() const { return arrivedContexts; }

    /** Context ids in the order they completed. */
    const std::vector<int> &completionOrder() const
    {
        return completions;
    }

    /** Every created context reached Complete (and one exists). */
    bool allContextsComplete() const
    {
        return !contexts.empty() && completions.size() == contexts.size();
    }

    /** Tick of the latest context completion (0 before the first). */
    sim::Tick lastCompletionTick() const
    {
        return completions.empty()
                   ? 0
                   : contexts[completions.back()]->completeTick;
    }
    /// @}

    /// @name WgScheduler (used by waiting-policy controllers)
    /// @{
    bool hasStarvedWork() const override;
    void resumeWg(int wg_id) override;
    unsigned numWaitingWgs() const override;
    /// @}

    /// @name CuListener
    /// @{
    void wgCompleted(WorkGroup *wg) override;
    void wgWantsSwitch(WorkGroup *wg, sim::Cycles rescue_cycles)
        override;
    /// @}

    /**
     * Oversubscription scenario: take @p cu_id offline and pre-empt
     * its resident WGs (kernel-level scheduling taking resources
     * away). Halted WGs are skipped, as in setCuAssignment().
     */
    void offlineCu(unsigned cu_id);

    /**
     * Resource restoration: the higher-priority work finished and the
     * CU is schedulable again (Figure 2's dynamic allocation).
     * Stranded ready WGs dispatch onto it immediately — if the
     * machine has WG swap-in firmware.
     */
    void onlineCu(unsigned cu_id);

    /** Number of CUs currently online. */
    unsigned numOnlineCus() const;

    /** Whether CU @p cu_id is online. */
    bool cuOnline(unsigned cu_id) const
    {
        return cu_id < cus.size() && !cus[cu_id]->offline();
    }

    /**
     * Whether any work-group of context @p ctx_id currently occupies
     * CU @p cu_id (dispatching, running or draining there).
     */
    bool cuHostsContext(unsigned cu_id, int ctx_id) const;

    unsigned numCus() const
    {
        return static_cast<unsigned>(cus.size());
    }

    /**
     * Per-fault recovery accounting: one record per CU restoration
     * that was followed by a swap-in, measuring how long the machine
     * took to make use of the returned resources.
     */
    struct CuRecovery
    {
        sim::Tick restoreTick;      //!< when onlineCu() fired
        sim::Tick firstSwapInTick;  //!< first swap-in after it
    };

    const std::vector<CuRecovery> &cuRecoveries() const
    {
        return recoveries;
    }

    /// @name Introspection
    /// @{
    WorkGroup *wg(int wg_id);
    const std::vector<std::unique_ptr<WorkGroup>> &workgroups() const
    {
        return wgs;
    }
    unsigned numCompleted() const { return completed; }

    DispatchContext *context(int ctx_id);
    const DispatchContext *context(int ctx_id) const;
    const std::vector<std::unique_ptr<DispatchContext>> &
    dispatchContexts() const
    {
        return contexts;
    }
    /// @}

    sim::StatGroup &stats() { return statGroup; }
    const sim::StatGroup &stats() const { return statGroup; }

    /**
     * Close every WG's stall-reason books at @p end_tick and fold the
     * per-WG tick totals into the wgCycles stat vector (indexed by
     * StallReason, in cycles). Called once by GpuSystem at the end of
     * a run; the buckets then partition each WG's lifetime exactly.
     */
    void accumulateWgCycleStats(sim::Tick end_tick);

  private:
    void tryDispatch();
    /** tryDispatch() with an oracle: explicit candidate enumeration. */
    void oracleDispatch();
    ComputeUnit *findHost(const DispatchContext &ctx,
                          bool consult_oracle = true);
    void startFresh(WorkGroup *wg, ComputeUnit *cu);
    void startSwapIn(WorkGroup *wg, ComputeUnit *cu);
    void preemptRunning(WorkGroup *wg);
    void beginSwapOut(WorkGroup *wg);
    /** SwitchingOut: drain @p wg, then save its context. */
    void drainAndSave(WorkGroup *wg);
    void finishSwapOut(WorkGroup *wg);

    /**
     * Pre-empt @p w while it is still inside the launch latency: the
     * epoch guard cancels the pending activation and the WG returns
     * to the front of its context's fresh queue (it never ran, so
     * there is no context to save). @return the requeued WG id.
     */
    int requeueDispatching(WorkGroup *w, unsigned cu_id);

    /**
     * CU @p cu_id was lost or revoked under @p w: a Dispatching WG is
     * requeued (its id appended to @p requeued), a Running one
     * pre-empted. WGs already switching out or restoring are on their
     * way, and a halted WG (every wavefront done) is finished: its
     * queued completion frees the slot, so it is never pre-empted.
     */
    void evict(WorkGroup *w, unsigned cu_id, std::vector<int> &requeued);

    /** The context owning @p w (by its ctxId). */
    DispatchContext &ctxOf(const WorkGroup *w);

    void notifyPreempted(WorkGroup *w, int cu_id);
    void contextCompleted(DispatchContext &ctx);

    ContextSwitcher &switcher;
    AdmissionPolicy &admission;
    std::vector<ComputeUnit *> cus;
    sim::TraceSink *trace = nullptr;
    sim::SchedOracle *oracle = nullptr;
    bool swapInCapable = true;
    sim::Cycles defaultRescueCycles = 0;

    std::vector<std::unique_ptr<DispatchContext>> contexts;
    /** Resident contexts in admission order (tryDispatch priority). */
    std::vector<int> residentOrder;
    /** CU ownership: ctx id per CU, -1 = unowned. */
    std::vector<int> cuOwner;
    unsigned arrivedContexts = 0;
    /** Completed context ids, in completion order. */
    std::vector<int> completions;

    std::vector<std::unique_ptr<WorkGroup>> wgs;
    unsigned completed = 0;

    /** Restorations whose first swap-in has not happened yet. */
    std::vector<sim::Tick> pendingRestores;
    std::vector<CuRecovery> recoveries;

    sim::StatGroup statGroup;
    sim::Scalar &dispatches;
    sim::Scalar &swapOuts;
    sim::Scalar &swapIns;
    sim::Scalar &resumesStalled;
    sim::Scalar &resumesSwapped;
    sim::Scalar &forcedPreemptions;
    sim::Scalar &contextsAdmitted;
    sim::Scalar &cuReassignments;
    sim::Vector &wgCycles;
};

} // namespace ifp::gpu

#endif // IFP_GPU_DISPATCHER_HH
