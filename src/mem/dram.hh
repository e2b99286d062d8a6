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

/// @name DRAM timing (the DDR3 of Table 1)
/// @{
/** DRAM clock: 1 GHz, half the GPU clock. */
constexpr sim::Tick dramClockPeriod =
    sim::periodFromFrequency(1'000'000'000ULL);
/** Independent channels, each first-come-first-served. */
constexpr unsigned dramChannels = 4;
/** Fixed access latency, in DRAM cycles. */
constexpr sim::Cycles dramAccessLatency = 50;
/** Channel occupancy per request (bandwidth bound), in DRAM cycles. */
constexpr sim::Cycles dramBurstCycles = 4;
/** Channel-interleaving granularity, in bytes. */
constexpr unsigned dramInterleaveBytes = 64;
/// @}

/**
 * Multi-channel DRAM. Implements MemDevice; responds to each request
 * after queueing + latency. Not a sim::Clocked: it runs on its own
 * clock, dramClockPeriod.
 */
class Dram : public sim::SimObject, public MemDevice
{
  public:
    Dram(std::string name, sim::EventQueue &eq);

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

    std::vector<Channel> channelState;

    sim::StatGroup statGroup;
    sim::Scalar &numReads;
    sim::Scalar &numWrites;
    sim::Scalar &totalQueueTicks;
};

} // namespace ifp::mem

#endif // IFP_MEM_DRAM_HH
