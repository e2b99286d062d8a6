/**
 * @file
 * DRAM timing model.
 *
 * Models the DDR3 main memory of Table 1: a number of independent
 * channels selected by address interleaving at cacheline granularity.
 * Each channel services requests first-come-first-served with a fixed
 * access latency plus a per-request occupancy that bounds channel
 * bandwidth. Data is not stored here (see mem/backing_store.hh).
 */

#ifndef IFP_MEM_DRAM_HH
#define IFP_MEM_DRAM_HH

#include <vector>

#include "mem/request.hh"
#include "sim/clocked.hh"
#include "sim/ring_queue.hh"
#include "sim/stats.hh"

namespace ifp::mem {

/** Configuration of the DRAM model. */
struct DramConfig
{
    unsigned channels = 4;
    sim::Tick clockPeriod = sim::periodFromFrequency(1'000'000'000ULL);
    /** Fixed access latency, in DRAM cycles. */
    sim::Cycles accessLatency = 50;
    /** Channel occupancy per request (bandwidth bound), in cycles. */
    sim::Cycles burstCycles = 4;
    /** Interleaving granularity in bytes. */
    unsigned interleaveBytes = 64;
};

/**
 * Multi-channel DRAM. Implements MemDevice; responds to each request
 * after queueing + latency.
 */
class Dram : public sim::Clocked, public MemDevice
{
  public:
    Dram(std::string name, sim::EventQueue &eq, const DramConfig &cfg);

    void access(const MemRequestPtr &req) override;

    sim::StatGroup &stats() { return statGroup; }
    const sim::StatGroup &stats() const { return statGroup; }

  private:
    struct Channel
    {
        sim::RingQueue<MemRequestPtr> queue;
        /** Tick at which the channel becomes free again. */
        sim::Tick busyUntil = 0;
        bool drainScheduled = false;
    };

    unsigned channelFor(Addr addr) const;
    void drainChannel(unsigned idx);

    DramConfig config;
    std::vector<Channel> channelState;

    /// @name Precomputed event descriptions (hot path: no concats)
    /// @{
    std::string descDrain;
    std::string descResp;
    /// @}

    sim::StatGroup statGroup;
    sim::Scalar &numReads;
    sim::Scalar &numWrites;
    sim::Scalar &totalQueueTicks;
};

} // namespace ifp::mem

#endif // IFP_MEM_DRAM_HH
