/**
 * @file
 * Command Processor firmware model.
 *
 * The paper extends the firmware of the GPU's existing programmable
 * micro-controller (the CP) to:
 *
 *  - perform WG context switches (save/restore through the DMA
 *    engine into a context store in global memory),
 *  - track waiting WGs and their state transitions (stalled /
 *    switching out / waiting / ready / switching in),
 *  - drain the Monitor Log into a lookup-efficient in-memory table
 *    and periodically check the spilled waiting conditions,
 *  - provide the timeout backstop ("rescue") that re-activates
 *    waiting WGs after monitor misses or mispredictions (Mesa
 *    semantics: resumed WGs re-check their condition).
 *
 * The CP is off the critical path: it is only involved in the
 * uncommon, high-latency operations.
 */

#ifndef IFP_CP_COMMAND_PROCESSOR_HH
#define IFP_CP_COMMAND_PROCESSOR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cp/admission.hh"
#include "cp/monitor_log.hh"
#include "gpu/sched_iface.hh"
#include "gpu/workgroup.hh"
#include "mem/backing_store.hh"
#include "mem/dma.hh"
#include "sim/clocked.hh"
#include "sim/sched_oracle.hh"
#include "sim/stats.hh"
#include "sim/trace_sink.hh"

namespace ifp::cp {

/** CP firmware configuration. */
struct CpConfig
{
    /** Monitor Log capacity, in entries. */
    unsigned monitorLogCapacity = 4096;
    /** Multi-kernel admission/preemption policy knobs. */
    AdmissionConfig admission;
};

/**
 * Listener for the lifecycle of spilled waiting conditions. The
 * SyncMon implements this so conditions virtualized into the Monitor
 * Log keep participating in its per-line accounting (monitored bits,
 * lazy cleanup, Bloom-filter lifetime) while the CP owns them. Kept
 * here so the CP never depends on the syncmon layer.
 */
class SpillObserver
{
  public:
    virtual ~SpillObserver() = default;
    /**
     * A spilled condition left the CP's tables: its waiter resumed
     * (condition met or rescue) or was dropped as stale.
     */
    virtual void onSpilledCondRemoved(mem::Addr addr, int wg_id) = 0;
};

/** The Command Processor. */
class CommandProcessor : public sim::Clocked,
                         public gpu::ContextSwitcher
{
  public:
    CommandProcessor(std::string name, sim::EventQueue &eq,
                     const CpConfig &cfg, mem::DmaEngine &dma,
                     mem::BackingStore &store,
                     mem::MemDevice *l2 = nullptr,
                     mem::MemRequestPool *request_pool = nullptr);

    void setScheduler(gpu::WgScheduler *s) { scheduler = s; }
    void setTraceSink(sim::TraceSink *sink) { trace = sink; }
    /** Spilled-condition lifecycle listener (the SyncMon). */
    void setSpillObserver(SpillObserver *o) { spillObserver = o; }
    /** Schedule-choice oracle for housekeeping resume ordering. */
    void setSchedOracle(sim::SchedOracle *o) { oracle = o; }

    /**
     * The firmware's kernel admission/preemption scheduler. The
     * GpuSystem wires it to the dispatcher; it runs synchronously
     * inside dispatcher notifications (no events of its own).
     */
    AdmissionScheduler &admissionScheduler() { return admScheduler; }
    const AdmissionScheduler &admissionScheduler() const
    {
        return admScheduler;
    }

    /// @name ContextSwitcher
    /// @{
    void saveContext(gpu::WorkGroup *wg,
                     std::function<void()> done) override;
    void restoreContext(gpu::WorkGroup *wg,
                        std::function<void()> done) override;
    void armRescue(int wg_id, sim::Cycles timeout_cycles) override;
    void cancelRescue(int wg_id) override;
    /// @}

    /// @name Monitor Log interface (called by the SyncMon)
    /// @{

    /**
     * Spill a waiting condition the SyncMon could not hold.
     * @return false when the log is full (the waiting atomic then
     *         fails without entering a waiting state).
     */
    bool spillCondition(mem::Addr addr, mem::MemValue expected,
                        int wg_id);

    /** Remove spilled conditions belonging to a resumed WG. */
    void dropSpilledFor(int wg_id);
    /// @}

    /// @name Fault-injection hooks (core/fault_plan.hh)
    /// @{
    /**
     * LogJam window: the Monitor Log rejects every append, so waiting
     * atomics that would spill fail immediately (Mesa retry) — the
     * sustained log-full phase without actually filling the log.
     */
    void beginLogJam() { ++jamDepth; }
    void endLogJam() { if (jamDepth) --jamDepth; }

    /**
     * CpStall fault: the firmware is wedged until @p until. The
     * housekeeping loop keeps its schedule but performs no work (no
     * drains, no condition checks, no rescues) before that tick.
     */
    void stallFirmware(sim::Tick until);
    /// @}

    /// @name Introspection (Figure 13 accounting)
    /// @{
    const MonitorLog &monitorLog() const { return log; }
    unsigned maxSpilledConditions() const { return maxSpilled; }
    std::uint64_t maxContextStoreBytes() const
    {
        return maxContextBytes;
    }
    std::uint64_t rescueResumes() const
    {
        return static_cast<std::uint64_t>(rescuesFired.value());
    }
    /// @}

    sim::StatGroup &stats() { return statGroup; }
    const sim::StatGroup &stats() const { return statGroup; }

  private:
    struct SpilledCond
    {
        mem::Addr addr;
        mem::MemValue expected;
        int wgId;
    };

    void housekeeping();
    void ensureHousekeeping();
    bool hasWork() const;

    mem::DmaEngine &dma;
    mem::BackingStore &store;
    gpu::WgScheduler *scheduler = nullptr;
    sim::TraceSink *trace = nullptr;
    sim::SchedOracle *oracle = nullptr;
    SpillObserver *spillObserver = nullptr;

    MonitorLog log;
    AdmissionScheduler admScheduler;
    /** The "monitor table": drained, lookup-efficient conditions. */
    std::vector<SpilledCond> spilled;
    /** Rescue deadlines for waiting WGs, keyed by WG id. */
    std::unordered_map<int, sim::Tick> rescueDeadlines;

    bool housekeepingScheduled = false;

    /// @name Active fault-window state
    /// @{
    unsigned jamDepth = 0;
    sim::Tick firmwareStalledUntil = 0;
    /// @}

    std::uint64_t currentContextBytes = 0;
    std::uint64_t maxContextBytes = 0;
    unsigned maxSpilled = 0;

    sim::StatGroup statGroup;
    sim::Scalar &contextSavesStat;
    sim::Scalar &contextRestoresStat;
    sim::Scalar &logDrained;
    sim::Scalar &spilledResumes;
    sim::Scalar &rescuesFired;
    sim::Scalar &jamRejects;
    sim::Scalar &stallDeferrals;
};

} // namespace ifp::cp

#endif // IFP_CP_COMMAND_PROCESSOR_HH
