/**
 * @file
 * Compute Unit: SIMD issue, instruction semantics and WG residency.
 *
 * Each CU has a number of SIMD units; every GPU cycle each SIMD can
 * issue one instruction from a ready wavefront, selected round-robin
 * (the fairness GPUs provide for intra-WG forward progress). The CU is
 * event-driven: it only ticks while at least one wavefront can issue,
 * so stalled/sleeping/waiting configurations consume no host time.
 * Each SIMD keeps a bit mask of its Ready wavefronts, so picking one
 * and testing whether any can issue walk set bits, not every slot.
 *
 * The CU also implements the waiting-state machine of the paper:
 * failed waiting atomics and armed wait-instructions put wavefronts
 * into WaitSync per the controller's WaitDecision, stall rescue timers
 * re-consult the controller on expiry, and drain logic quiesces a WG
 * before its context is saved.
 */

#ifndef IFP_GPU_COMPUTE_UNIT_HH
#define IFP_GPU_COMPUTE_UNIT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "gpu/cu_geometry.hh"
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
    /** @p listener (the dispatcher) hears completions and yields. */
    ComputeUnit(std::string name, sim::EventQueue &eq, unsigned cu_id,
                mem::MemDevice &l1, mem::BackingStore &store,
                mem::MemRequestPool &request_pool,
                CuListener &listener);

    /**
     * Memory response for an issued request; the tag carries the
     * issuing Wavefront. The wavefront cannot retire while the
     * request is in flight (WaitMem), so the pointer stays valid.
     */
    void onMemResponse(mem::MemRequest &req, std::uint64_t tag) override;

    /// @name Wiring
    /// @{
    void setSyncObserver(mem::SyncObserver *obs) { observer = obs; }
    void setTraceSink(sim::TraceSink *sink) { trace = sink; }
    /** Schedule-choice oracle for SIMD wavefront arbitration. */
    void setSchedOracle(sim::SchedOracle *o) { oracle = o; }
    /**
     * Every CU of the machine, this one included: a coast retires
     * the countdowns of every armed CU at once (see tick()).
     */
    void setPeers(std::vector<ComputeUnit *> cus) { peers = std::move(cus); }
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

    /**
     * Issue one instruction per SIMD. After a tick that issued a
     * countdown instruction (isa::CountdownRole), with no oracle
     * installed, first try to coast().
     */
    void tick();
    /**
     * The countdown coast. When every issue candidate of this CU and
     * of every armed peer sits in a countdown and the only other
     * events due now are those peers' ticks, round-robin issue until
     * the next pending event (or a countdown's end, or the simulate()
     * limit) touches nothing but counters and pcs: retire those n
     * cycles in closed form, re-arm n cycles on and move the peers'
     * ticks there. Exactly what n per-cycle ticks would do.
     * @return false, changing nothing, when it does not apply.
     */
    bool coast();
    /**
     * Cycles from now that round-robin issue spends entirely in
     * countdowns: 0 unless every candidate sits in one (and there is
     * a candidate).
     */
    sim::Cycles countdownCycles() const;
    /** Retire @p n cycles of countdown issue, n <= countdownCycles(). */
    void retireCountdowns(sim::Cycles n);
    bool anyIssuable() const;
    /**
     * Write up to @p max indices of SIMD @p s's issuable wavefronts
     * (Ready, WG Running) to @p out in round-robin order from
     * rrIndex[s]. @return how many were written.
     */
    unsigned issueCandidates(unsigned s, unsigned *out,
                             unsigned max) const;
    /**
     * Let the oracle choose among SIMD @p s's issuable wavefronts.
     * @return false when there is none; else @p idx is the choice.
     */
    bool oraclePick(unsigned s, unsigned &idx) const;
    /**
     * The one writer of Wavefront state: keeps the SIMD's readyMask
     * in step. @p wf must be resident here.
     */
    void setWfState(Wavefront &wf, WfState next);
    /** Number simdWfs[s] in list order and rebuild readyMask[s]. */
    void rebuildSimd(unsigned s);
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
    mem::MemDevice &l1;
    mem::BackingStore &store;
    mem::MemRequestPool &pool;
    CuListener &listener;
    mem::SyncObserver *observer = nullptr;
    sim::TraceSink *trace = nullptr;
    sim::SchedOracle *oracle = nullptr;
    std::vector<ComputeUnit *> peers;
    /** The last tick issued a countdown instruction. */
    bool issuedCountdown = false;

    std::array<std::vector<Wavefront *>, simdsPerCu> simdWfs;
    /** Bit i of readyMask[s] set iff simdWfs[s][i] is Ready. */
    std::array<std::uint64_t, simdsPerCu> readyMask{};
    static_assert(wavefrontsPerSimd <= 64,
                  "a SIMD's wavefronts must fit its 64-bit ready mask");
    std::array<unsigned, simdsPerCu> rrIndex{};
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
