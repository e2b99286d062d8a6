/**
 * @file
 * Shared, banked L2 cache — the GPU's synchronization point.
 *
 * All global atomics are performed here by the bank ALUs (GCN-style).
 * The L2 is where the paper's machinery attaches:
 *
 *  - every L2 tag carries a *monitored bit*; accesses to monitored
 *    lines are reported to the installed SyncObserver,
 *  - failed waiting atomics and arriving wait-instructions ask the
 *    SyncObserver for a WaitDecision,
 *  - monitored lines are pinned so they cannot be evicted.
 *
 * Timing: requests are address-interleaved across banks; each bank
 * services its queue in order. A serviced request occupies the bank for
 * a configurable number of cycles (larger for atomics, modeling the
 * read-modify-write turnaround), which is what makes busy-wait
 * spinning on one synchronization variable collapse throughput — the
 * effect the paper's Baseline suffers from.
 */

#ifndef IFP_MEM_L2_CACHE_HH
#define IFP_MEM_L2_CACHE_HH

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/cache_tags.hh"
#include "mem/request.hh"
#include "mem/sync_hooks.hh"
#include "sim/clocked.hh"
#include "sim/ring_queue.hh"
#include "sim/stats.hh"

namespace ifp::mem {

/** L2 configuration (defaults per Table 1). */
struct L2Config
{
    std::size_t sizeBytes = 512 * 1024;
    unsigned assoc = 16;
    unsigned lineBytes = 64;
    unsigned banks = 4;
    /** Hit latency (request to response), in GPU cycles. */
    sim::Cycles hitLatency = 50;
    /** Bank occupancy per plain read/write, in cycles. */
    sim::Cycles serviceCycles = 4;
    /**
     * Bank occupancy per atomic, in cycles. Independent atomics
     * pipeline at this rate.
     */
    sim::Cycles atomicServiceCycles = 4;
    /**
     * Minimum spacing between atomics to the *same cacheline*, in
     * cycles. Models the read-modify-write turnaround plus the
     * coherence/ordering round trip same-line atomics pay on a
     * write-through GPU memory system (Ruby-style GETX ping-pong in
     * the paper's gem5 APU substrate). This is what makes busy-wait
     * spinning on one synchronization variable collapse throughput —
     * the effect the paper's Baseline suffers from (cf. Figure 7,
     * where backoff alone buys an order of magnitude).
     */
    sim::Cycles sameLineAtomicGapCycles = 150;
    sim::Tick clockPeriod = sim::periodFromFrequency(2'000'000'000ULL);
};

/**
 * The shared L2. Implements MemDevice for the L1s; talks to DRAM below.
 */
class L2Cache : public sim::Clocked, public MemDevice,
                public MemResponder
{
  public:
    L2Cache(std::string name, sim::EventQueue &eq, const L2Config &cfg,
            MemDevice &dram, BackingStore &store,
            MemRequestPool &request_pool);

    void access(const MemRequestPtr &req) override;

    /** DRAM fill completion; the fill's parent is the blocked req. */
    void onMemResponse(MemRequest &fill, std::uint64_t tag) override;

    /** Install the waiting-policy controller (may be nullptr). */
    void setSyncObserver(SyncObserver *obs) { observer = obs; }

    /**
     * Set/clear the monitored bit of the line containing @p addr.
     * Monitored lines are pinned in the tags.
     */
    void setMonitored(Addr addr, bool monitored);

    /** Whether the line containing @p addr has its monitored bit set. */
    bool isMonitored(Addr addr) const;

    /** Number of lines currently monitored (hardware-budget stat). */
    std::size_t numMonitored() const { return monitoredLines.size(); }

    /** High-water mark of simultaneously monitored lines. */
    std::size_t maxMonitored() const { return maxMonitoredLines; }

    sim::StatGroup &stats() { return statGroup; }
    const sim::StatGroup &stats() const { return statGroup; }

    const L2Config &config() const { return cfg; }

  private:
    struct Bank
    {
        sim::RingQueue<MemRequestPtr> queue;
        sim::Tick busyUntil = 0;
        bool drainScheduled = false;
        /** Per-line RMW turnaround state (atomics only). */
        std::unordered_map<Addr, sim::Tick> lineBusyUntil;
    };

    unsigned bankFor(Addr addr) const;
    void drainBank(unsigned idx);
    void serviceRequest(MemRequestPtr req);
    void finishAccess(const MemRequestPtr &req);
    void scheduleFinish(MemRequestPtr req);

    L2Config cfg;
    MemDevice &dram;
    BackingStore &store;
    MemRequestPool &pool;
    SyncObserver *observer = nullptr;

    CacheTags tags;
    std::vector<Bank> banks;
    std::unordered_set<Addr> monitoredLines;
    std::size_t maxMonitoredLines = 0;

    sim::StatGroup statGroup;
    sim::Scalar &hits;
    sim::Scalar &misses;
    sim::Scalar &atomics;
    sim::Scalar &waitingAtomics;
    sim::Scalar &waitFails;
    sim::Scalar &armWaits;
    sim::Scalar &monitoredNotifies;
    sim::Scalar &writebacks;
    sim::Scalar &queueTicks;
};

} // namespace ifp::mem

#endif // IFP_MEM_L2_CACHE_HH
