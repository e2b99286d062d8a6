/**
 * @file
 * DMA engine used by the Command Processor for WG context save/restore.
 *
 * Context switching a WG moves its full architectural context (vector
 * and scalar registers, LDS image, hardware state) between the CU and
 * the context store in global memory. The engine models this as a bulk
 * transfer: a fixed setup cost plus a bandwidth-bound streaming phase.
 * Transfers serialize through the engine, so concurrent context
 * switches queue behind each other — an effect that matters in the
 * oversubscribed experiments.
 */

#ifndef IFP_MEM_DMA_HH
#define IFP_MEM_DMA_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/clocked.hh"
#include "sim/stats.hh"

namespace ifp::mem {

/** Fixed cycles of setup per transfer (descriptor, TLB, etc.). */
constexpr sim::Cycles dmaSetupCycles = 200;
/** Streaming bandwidth, bytes per GPU cycle. */
constexpr unsigned dmaBytesPerCycle = 32;

/** Serializing bulk-transfer engine. */
class DmaEngine : public sim::Clocked
{
  public:
    DmaEngine(std::string name, sim::EventQueue &eq);

    /**
     * Enqueue a transfer of @p bytes; @p on_done fires when the data
     * has fully moved.
     */
    void transfer(std::uint64_t bytes, std::function<void()> on_done);

    /** Cycles a transfer of @p bytes occupies the engine. */
    sim::Cycles transferCycles(std::uint64_t bytes) const;

    bool idle() const { return !busy && pending.empty(); }

    sim::StatGroup &stats() { return statGroup; }
    const sim::StatGroup &stats() const { return statGroup; }

  private:
    struct Transfer
    {
        std::uint64_t bytes;
        std::function<void()> onDone;
    };

    void startNext();

    std::deque<Transfer> pending;
    bool busy = false;

    sim::StatGroup statGroup;
    sim::Scalar &numTransfers;
    sim::Scalar &bytesMoved;
    sim::Scalar &busyTicks;
};

} // namespace ifp::mem

#endif // IFP_MEM_DMA_HH
