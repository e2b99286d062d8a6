/**
 * @file
 * Result record of one simulated kernel run.
 */

#ifndef IFP_CORE_RUN_RESULT_HH
#define IFP_CORE_RUN_RESULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/liveness.hh"
#include "sim/trace_sink.hh"
#include "sim/types.hh"

namespace ifp::core {

/** Everything the harness and benches need from one run. */
struct RunResult
{
    bool completed = false;
    bool deadlocked = false;

    /**
     * Liveness-oracle refinement of the flags above: `deadlocked`
     * stays true for every stalled run (tables and legacy checks keep
     * their meaning), while the verdict distinguishes DEADLOCK from
     * LIVELOCK and LOST_WAKEUP.
     */
    Verdict verdict = Verdict::Unknown;

    /// @name Time
    /// @{
    sim::Tick runTicks = 0;
    sim::Cycles gpuCycles = 0;   //!< runTicks in GPU clock cycles
    /// @}

    /// @name Host-side work (bench/e2e per-layer counts)
    /// @{
    /** Simulation events executed by the run's event queue. */
    std::uint64_t hostEvents = 0;
    /** MemRequests allocated from the run's request pool. */
    std::uint64_t memRequests = 0;
    /// @}

    /// @name Dynamic instruction counts
    /// @{
    std::uint64_t instructions = 0;
    std::uint64_t atomicInstructions = 0;   //!< Figure 9's metric
    std::uint64_t waitingAtomics = 0;
    std::uint64_t armWaits = 0;
    std::uint64_t sleeps = 0;
    /// @}

    /// @name WG execution break-down (Figure 11)
    /// @{
    double totalWgExecCycles = 0.0;
    double totalWgWaitCycles = 0.0;
    double
    totalWgRunCycles() const
    {
        return totalWgExecCycles - totalWgWaitCycles;
    }
    /// @}

    /// @name Stall-reason breakdown (observability layer)
    ///
    /// Per-reason WG-lifetime cycles summed over all WGs, indexed by
    /// sim::StallReason. The buckets partition each WG's lifetime
    /// from creation to completion (or end of run), so
    /// sum(wgCycleBreakdown) == wgLifetimeCycles.
    /// @{
    std::array<double, sim::numStallReasons> wgCycleBreakdown{};
    double wgLifetimeCycles = 0.0;
    double
    stallCycles(sim::StallReason reason) const
    {
        return wgCycleBreakdown[sim::stallIndex(reason)];
    }
    /// @}

    /// @name Scheduling activity
    /// @{
    std::uint64_t contextSaves = 0;
    std::uint64_t contextRestores = 0;
    std::uint64_t condResumesAll = 0;
    std::uint64_t condResumesOne = 0;
    std::uint64_t cpRescues = 0;
    std::uint64_t forcedPreemptions = 0;
    /** Waiters resumed by the AWG predictor. */
    std::uint64_t predictedResumes = 0;
    /** Predicted resumes that re-registered the same condition. */
    std::uint64_t mispredictedResumes = 0;
    /// @}

    /// @name Virtualization / hardware occupancy maxima (Figure 13)
    /// @{
    std::uint64_t maxConditions = 0;       //!< SyncMon condition cache
    std::uint64_t maxWaiters = 0;          //!< SyncMon waiting-WG list
    std::uint64_t maxMonitoredLines = 0;   //!< monitored L2 lines
    std::uint64_t maxLogEntries = 0;       //!< Monitor Log high water
    std::uint64_t maxSpilledConds = 0;     //!< CP monitor table
    std::uint64_t maxContextStoreBytes = 0;
    std::uint64_t spills = 0;
    std::uint64_t logFullRetries = 0;
    /// @}

    /// @name Fairness (WG completion spread)
    /// @{
    /** Cycles between the first and last WG completion. */
    sim::Cycles wgCompletionSpreadCycles = 0;
    /** Largest per-WG sync-wait time, in cycles. */
    sim::Cycles maxWgWaitCycles = 0;
    /// @}

    /// @name Fault injection (core/fault_plan.hh)
    /// @{
    /** Fault events that actually fired during the run. */
    std::uint64_t injectedFaults = 0;
    /** Resume notifications suppressed by DropResume windows. */
    std::uint64_t droppedResumes = 0;
    /** Resume notifications deferred by DelayResume windows. */
    std::uint64_t delayedResumes = 0;
    /** Waiters the oracle flagged as lost (see verdict). */
    std::vector<LostWakeupRecord> lostWakeups;
    /** CU-restore to first-swap-in latencies, one per restoration. */
    std::vector<FaultRecovery> faultRecoveries;
    /// @}

    /// @name Validation
    /// @{
    bool validated = false;
    std::string validationError;
    /// @}

    /** Wall status string for tables: cycles or DEADLOCK. */
    std::string statusString() const;

    /** Oracle verdict name plus cycles for completed runs. */
    std::string verdictString() const;
};

} // namespace ifp::core

#endif // IFP_CORE_RUN_RESULT_HH
