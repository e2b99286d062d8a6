/**
 * @file
 * The Synchronization Monitor (SyncMon) controller.
 *
 * Attached to the L2 (where GPU atomics execute), the SyncMon
 * implements the paper's family of monitor-based waiting policies:
 *
 *  - MonRS-All : wait-instructions arm *address* conditions; any
 *                access to a monitored address sporadically resumes
 *                all of its waiters without checking the condition.
 *  - MonR-All  : wait-instructions arm (address, value) conditions;
 *                updates that meet a condition resume all its waiters.
 *                Subject to the window-of-vulnerability race.
 *  - MonNR-All : *waiting atomics* register conditions atomically at
 *                the L2 (no race); resume all on condition met.
 *  - MonNR-One : as MonNR-All but resumes one waiter per met update;
 *                the rest resume on later updates or by timeout.
 *  - AWG       : MonNR plus the resume predictor (waiter count +
 *                Bloom-filter unique-update count) and the stall-
 *                period predictor that delays context switches.
 *  - MinResume : the oracle of Figure 9 — a waiter is resumed only
 *                when its condition actually holds, one at a time.
 *
 * Capacity overflows spill through the Command Processor into the
 * Monitor Log (virtualization); a full log makes the waiting atomic
 * fail without waiting (Mesa retry).
 */

#ifndef IFP_SYNCMON_SYNC_MONITOR_HH
#define IFP_SYNCMON_SYNC_MONITOR_HH

#include <unordered_map>

#include "cp/command_processor.hh"
#include "gpu/sched_iface.hh"
#include "mem/backing_store.hh"
#include "mem/l2_cache.hh"
#include "mem/sync_hooks.hh"
#include "sim/clocked.hh"
#include "sim/sched_oracle.hh"
#include "sim/stats.hh"
#include "sim/trace_sink.hh"
#include "syncmon/bloom_filter.hh"
#include "syncmon/condition_cache.hh"

namespace ifp::syncmon {

/** Which resume policy the SyncMon runs. */
enum class SyncMonMode
{
    MonRSAll,   //!< sporadic notify, resume all
    MonRAll,    //!< condition check on update, resume all (racy arm)
    MonNRAll,   //!< waiting atomics, resume all
    MonNROne,   //!< waiting atomics, resume one
    Awg,        //!< waiting atomics + resume/stall prediction
    MinResume,  //!< oracle: resume exactly the waiters that can run
};

/**
 * What happens when a condition cache set is full (the paper leaves
 * the study of Monitor Log replacement/fairness policies as future
 * work; both options are implemented here).
 */
enum class SpillPolicy
{
    SpillNew,        //!< the arriving condition goes to the log
    EvictYoungest,   //!< the set's youngest condition is demoted
};

/** SyncMon hardware/behaviour configuration (defaults per §V.C). */
struct SyncMonConfig
{
    unsigned sets = 256;
    unsigned ways = 4;
    unsigned waitingListCapacity = 512;

    /** Backstop timeout re-activating waiters, in GPU cycles. */
    sim::Cycles rescueIntervalCycles = 20'000;
    /**
     * AWG's stall-period prediction (stall for a predicted window
     * before paying for a context switch). Disabling it makes AWG
     * switch immediately when oversubscribed, like the MonNR
     * policies — the ablation knob for §IV.B's optimization.
     */
    bool stallPredictionEnabled = true;
    /** Set-conflict handling (virtualization fairness study). */
    SpillPolicy spillPolicy = SpillPolicy::SpillNew;
};

/** The SyncMon: a mem::SyncObserver installed into the L2. */
class SyncMonController : public sim::Clocked,
                          public mem::SyncObserver,
                          public cp::SpillObserver
{
  public:
    SyncMonController(std::string name, sim::EventQueue &eq,
                      SyncMonMode mode, const SyncMonConfig &cfg,
                      mem::L2Cache &l2, mem::BackingStore &store,
                      cp::CommandProcessor &cp);

    void setScheduler(gpu::WgScheduler *s) { scheduler = s; }
    void setTraceSink(sim::TraceSink *sink) { trace = sink; }
    /** Schedule-choice oracle for resume victim/order decisions. */
    void setSchedOracle(sim::SchedOracle *o) { oracle = o; }

    /// @name mem::SyncObserver
    /// @{
    mem::WaitDecision onWaitFail(const mem::MemRequest &req,
                                 mem::MemValue observed) override;
    mem::WaitDecision onArmWait(const mem::MemRequest &req) override;
    void onMonitoredAccess(mem::Addr addr, mem::MemValue new_value,
                           bool is_update, int by_wg) override;
    mem::WaitDecision onStallTimeout(int wg_id, mem::Addr addr,
                                     mem::MemValue expected) override;
    /// @}

    /// @name cp::SpillObserver
    ///
    /// A condition virtualized into the Monitor Log is still a live
    /// condition on its line: the monitored bit must stay set (so the
    /// Bloom filter keeps observing updates during the spill window)
    /// and the lazy cleanup must not reset predictor state while the
    /// CP still tracks waiters for the line. The CP reports each
    /// spilled condition it retires so the per-line refcount balances.
    /// @{
    void onSpilledCondRemoved(mem::Addr addr, int wg_id) override;
    /// @}

    SyncMonMode mode() const { return policyMode; }

    /// @name Fault-injection hooks (core/fault_plan.hh)
    ///
    /// Plain depth counters flipped by GpuSystem-scheduled fault
    /// edges; windows may nest/overlap, and a window ends only when
    /// its depth returns to zero. Kept as dumb setters so this layer
    /// never depends on core.
    /// @{
    /** Condition cache reports itself full: every new waiter spills. */
    void beginCapacityPressure() { ++pressureDepth; }
    void endCapacityPressure() { if (pressureDepth) --pressureDepth; }
    /** Resume notifications are silently lost (MonR-style WoV race). */
    void beginResumeDrop() { ++dropDepth; }
    void endResumeDrop() { if (dropDepth) --dropDepth; }
    /** Resume notifications are deferred by @p delay_cycles. */
    void beginResumeDelay(sim::Cycles delay_cycles);
    void endResumeDelay();
    /// @}

    /// @name Hardware budget and Figure 13 accounting
    /// @{
    std::uint64_t conditionCacheBits() const;
    std::uint64_t bloomBits() const { return blooms.sizeBits(); }
    unsigned maxConditions() const { return conds.maxValid(); }
    unsigned maxWaiters() const { return waiters.maxInUse(); }
    /** AWG predictor state for @p addr's line (tests/benches). */
    unsigned
    bloomUniquesFor(mem::Addr addr) const
    {
        return blooms.filterFor(lineOf(addr)).uniqueCount();
    }
    /** Live-condition refcount of @p addr's line (tests). */
    unsigned
    lineCondCount(mem::Addr addr) const
    {
        auto it = lineConds.find(lineOf(addr));
        return it == lineConds.end() ? 0 : it->second;
    }
    /// @}

    sim::StatGroup &stats() { return statGroup; }
    const sim::StatGroup &stats() const { return statGroup; }

  private:
    bool usesAddrOnlyConditions() const
    {
        return policyMode == SyncMonMode::MonRSAll;
    }

    /**
     * Register (addr, expected, wg) in the condition cache; spills to
     * the Monitor Log on overflow. Returns the resulting decision.
     */
    mem::WaitDecision registerWaiter(mem::Addr addr,
                                     mem::MemValue expected, int wg_id);

    /** Pop and resume the first waiter of @p entry. */
    void resumeOne(ConditionCache::Entry &entry);

    /** Resume every waiter and remove the condition. */
    void resumeAll(ConditionCache::Entry &entry);

    /** Remove a specific WG's waiter nodes from @p entry. */
    void removeWaiter(ConditionCache::Entry &entry, int wg_id);

    /**
     * Deliver a resume to the scheduler, honouring any active
     * DropResume / DelayResume fault window. Every monitor-initiated
     * resume funnels through here; CP rescues deliberately do not
     * (the rescue backstop is what the faults stress-test).
     */
    void notifyResume(int wg_id);

    /**
     * Demote @p entry and all its waiters to the Monitor Log.
     * @return false when the log lacks room (entry left untouched).
     */
    bool demoteToLog(ConditionCache::Entry &entry);

    /** Drop the condition if it has no waiters left. */
    void maybeRetire(ConditionCache::Entry &entry);

    /** Bookkeeping around condition insertion/retirement. */
    void noteConditionInserted(mem::Addr addr);
    void noteConditionRemoved(mem::Addr addr);

    /**
     * Account a condition successfully spilled to the Monitor Log:
     * the line stays monitored and its refcount grows by one per
     * spilled waiter until the CP reports the retirement back.
     */
    void noteConditionSpilled(mem::Addr addr);

    /** AWG accuracy: record a predictor-initiated resume. */
    void notePredictedResume(int wg_id, mem::Addr addr,
                             mem::MemValue value);

    /** Line base of @p addr (monitored bits/Blooms are per line). */
    mem::Addr
    lineOf(mem::Addr addr) const
    {
        return addr & ~static_cast<mem::Addr>(mem::cacheLineBytes - 1);
    }

    /** Stall-vs-switch decision for a freshly registered waiter. */
    mem::WaitDecision waitDecisionFor(mem::Addr addr);

    /** AWG stall-period prediction for @p addr, in cycles. */
    sim::Cycles predictStall(mem::Addr addr) const;

    /** Record an observed wait latency for the stall predictor. */
    void observeWaitLatency(mem::Addr addr, sim::Tick waited);

    SyncMonMode policyMode;
    SyncMonConfig config;
    mem::L2Cache &l2;
    mem::BackingStore &store;
    cp::CommandProcessor &cp;
    gpu::WgScheduler *scheduler = nullptr;
    sim::TraceSink *trace = nullptr;
    sim::SchedOracle *oracle = nullptr;

    ConditionCache conds;
    WaitingWgList waiters;
    BloomFilterBank blooms;

    /** AWG stall-period predictor state (EWMA per address). */
    std::unordered_map<mem::Addr, double> stallEwma;

    /**
     * AWG accuracy bookkeeping: the condition each WG was last
     * resumed on by the predictor. A WG re-registering for the same
     * (addr, value) was woken for nothing — a misprediction; any
     * registration clears the mark.
     */
    std::unordered_map<int, std::pair<mem::Addr, mem::MemValue>>
        lastPredictedResume;

    /// @name Active fault-window state
    /// @{
    unsigned pressureDepth = 0;
    unsigned dropDepth = 0;
    unsigned delayDepth = 0;
    /** Max delay across nested DelayResume windows, in cycles. */
    sim::Cycles resumeDelayCycles = 0;
    /// @}

    /** Live conditions per monitored line (lazy cleanup refcount). */
    std::unordered_map<mem::Addr, unsigned> lineConds;
    /** Tick at which a line's last condition retired. */
    std::unordered_map<mem::Addr, sim::Tick> lineIdleSince;

    sim::StatGroup statGroup;
    sim::Scalar &registrations;
    sim::Scalar &spills;
    sim::Scalar &logFullRetries;
    sim::Scalar &resumesAllStat;
    sim::Scalar &resumesOneStat;
    sim::Scalar &sporadicResumes;
    sim::Scalar &predictAll;
    sim::Scalar &predictOne;
    sim::Scalar &predictedResumes;
    sim::Scalar &mispredictedResumes;
    sim::Scalar &bloomResets;
    sim::Scalar &stallTimeouts;
    sim::Scalar &switchedOnTimeout;
    sim::Scalar &evictionsToLog;
    sim::Scalar &forcedSpills;
    sim::Scalar &droppedResumesStat;
    sim::Scalar &delayedResumesStat;
    /** Distribution of observed condition-met latencies (cycles). */
    sim::Histogram &waitLatency;
};

} // namespace ifp::syncmon

#endif // IFP_SYNCMON_SYNC_MONITOR_HH
