/**
 * @file
 * Compute Unit: SIMD issue, instruction semantics and WG residency.
 *
 * Each CU has a number of SIMD units; every GPU cycle each SIMD can
 * issue one instruction from a ready wavefront, selected round-robin
 * (the fairness GPUs provide for intra-WG forward progress). The CU is
 * event-driven: it only ticks while at least one wavefront can issue,
 * so stalled/sleeping/waiting configurations consume no host time.
 *
 * The CU also implements the waiting-state machine of the paper:
 * failed waiting atomics and armed wait-instructions put wavefronts
 * into WaitSync per the controller's WaitDecision, stall rescue timers
 * re-consult the controller on expiry, and drain logic quiesces a WG
 * before its context is saved.
 */

#ifndef IFP_GPU_COMPUTE_UNIT_HH
#define IFP_GPU_COMPUTE_UNIT_HH

#include <functional>
#include <unordered_map>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/sched_iface.hh"
#include "gpu/workgroup.hh"
#include "mem/backing_store.hh"
#include "mem/request.hh"
#include "mem/sync_hooks.hh"
#include "sim/clocked.hh"
#include "sim/sched_oracle.hh"
#include "sim/stats.hh"

namespace ifp::gpu {

/** One compute unit. */
class ComputeUnit : public sim::Clocked, public mem::MemResponder
{
  public:
    ComputeUnit(std::string name, sim::EventQueue &eq, unsigned cu_id,
                const GpuConfig &cfg, mem::MemDevice &l1,
                mem::BackingStore &store,
                mem::MemRequestPool &request_pool);

    /**
     * Memory response for an issued request; the tag carries the
     * issuing Wavefront. The wavefront cannot retire while the
     * request is in flight (WaitMem), so the pointer stays valid.
     */
    void onMemResponse(mem::MemRequest &req, std::uint64_t tag) override;

    /// @name Wiring
    /// @{
    void setListener(CuListener *l) { listener = l; }
    void setSyncObserver(mem::SyncObserver *obs) { observer = obs; }
    void setTraceSink(sim::TraceSink *sink) { trace = sink; }
    /** Schedule-choice oracle for SIMD wavefront arbitration. */
    void setSchedOracle(sim::SchedOracle *o) { oracle = o; }
    /// @}

    /// @name Residency
    /// @{

    /** Whether a WG of @p kernel fits right now. */
    bool canHost(const isa::Kernel &kernel) const;

    /** Reserve resources and attach @p wg's wavefronts. */
    void placeWg(WorkGroup *wg);

    /** Detach @p wg and free its resources. */
    void removeWg(WorkGroup *wg);

    /** Make a freshly placed / restored WG's wavefronts runnable. */
    void activateWg(WorkGroup *wg);

    /** Wake every WaitSync wavefront of a resident WG (resume path). */
    void resumeWaitingWfs(WorkGroup *wg);

    /**
     * Quiesce @p wg for context saving: cancels sleeps and waits for
     * outstanding memory/pipeline occupancy to drain, then calls
     * @p drained. The caller must have taken @p wg out of Running
     * state so no new instructions issue.
     */
    void beginDrain(WorkGroup *wg, std::function<void()> drained);

    void setOffline(bool value) { offlineFlag = value; }
    bool offline() const { return offlineFlag; }

    unsigned numResidentWgs() const { return resident.size(); }
    const std::vector<WorkGroup *> &residentWgs() const
    {
        return resident;
    }
    /// @}

    /** Ensure the CU ticks while issuable wavefronts exist. */
    void notifyReady();

    unsigned cuId() const { return id; }

    sim::StatGroup &stats() { return statGroup; }
    const sim::StatGroup &stats() const { return statGroup; }

  private:
    /**
     * Issue event, queued for the next edge while any wavefront can
     * issue: a member, since ticks are most of a run's events.
     */
    struct TickEvent : sim::Event
    {
        explicit TickEvent(ComputeUnit &c) : cu(c) {}
        void process() override { cu.tick(); }
        const char *description() const override { return "cu.tick"; }

        ComputeUnit &cu;
    };

    void tick();
    bool anyIssuable() const;
    bool issuable(const Wavefront &wf) const;
    void executeInstr(Wavefront &wf);
    void issueMemRequest(Wavefront &wf, const isa::Instr &in);
    void memResponse(Wavefront &wf, const mem::MemRequest &req);
    void applyWaitDecision(Wavefront &wf, mem::Addr addr,
                           mem::MemValue expected,
                           const mem::WaitDecision &decision);
    void scheduleWake(Wavefront &wf, sim::Cycles cycles);
    void scheduleRescue(Wavefront &wf, mem::Addr addr,
                        mem::MemValue expected, sim::Cycles cycles);
    void wakeWf(Wavefront &wf);
    void checkDrained(WorkGroup *wg);
    void doBarrier(Wavefront &wf);

    unsigned id;
    const GpuConfig &config;
    mem::MemDevice &l1;
    mem::BackingStore &store;
    mem::MemRequestPool &pool;
    CuListener *listener = nullptr;
    mem::SyncObserver *observer = nullptr;
    sim::TraceSink *trace = nullptr;
    sim::SchedOracle *oracle = nullptr;

    std::vector<std::vector<Wavefront *>> simdWfs;
    std::vector<unsigned> rrIndex;
    std::vector<WorkGroup *> resident;
    unsigned ldsUsed = 0;
    bool offlineFlag = false;
    TickEvent tickEvent{*this};

    std::unordered_map<int, std::function<void()>> drainCallbacks;

    sim::StatGroup statGroup;
    sim::Scalar &numInstructions;
    sim::Scalar &numAtomics;
    sim::Scalar &numWaitingAtomicsIssued;
    sim::Scalar &numArmWaits;
    sim::Scalar &numSleeps;
    sim::Scalar &numBarriers;
    sim::Scalar &numStalls;
    sim::Scalar &numRescues;
    sim::Scalar &activeCycles;
};

} // namespace ifp::gpu

#endif // IFP_GPU_COMPUTE_UNIT_HH
