#include "mem/dma.hh"

#include "sim/logging.hh"

namespace ifp::mem {

DmaEngine::DmaEngine(std::string name, sim::EventQueue &eq,
                     const DmaConfig &cfg)
    : Clocked(std::move(name), eq, cfg.clockPeriod),
      config(cfg),
      statGroup(this->name()),
      numTransfers(statGroup.addScalar("transfers",
                                       "bulk transfers completed")),
      bytesMoved(statGroup.addScalar("bytes", "total bytes moved")),
      busyTicks(statGroup.addScalar("busyTicks",
                                    "ticks the engine was busy"))
{
    ifp_assert(config.bytesPerCycle > 0, "DMA bandwidth must be > 0");
}

sim::Cycles
DmaEngine::transferCycles(std::uint64_t bytes) const
{
    std::uint64_t stream =
        (bytes + config.bytesPerCycle - 1) / config.bytesPerCycle;
    return config.setupCycles + stream;
}

void
DmaEngine::transfer(std::uint64_t bytes, std::function<void()> on_done)
{
    pending.push_back(Transfer{bytes, std::move(on_done)});
    if (!busy)
        startNext();
}

void
DmaEngine::startNext()
{
    if (pending.empty()) {
        busy = false;
        return;
    }
    busy = true;
    Transfer xfer = std::move(pending.front());
    pending.pop_front();

    sim::Cycles cycles = transferCycles(xfer.bytes);
    sim::Tick done = clockEdge(cycles);
    busyTicks += static_cast<double>(done - curTick());
    ++numTransfers;
    bytesMoved += static_cast<double>(xfer.bytes);

    eventq().schedule(done, [this, cb = std::move(xfer.onDone)] {
        if (cb)
            cb();
        startNext();
    }, "dma.xfer");
}

} // namespace ifp::mem
