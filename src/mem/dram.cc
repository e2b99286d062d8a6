#include "mem/dram.hh"

#include <utility>

namespace ifp::mem {

Dram::Dram(std::string name, sim::EventQueue &eq)
    : SimObject(std::move(name), eq),
      channelState(dramChannels),
      statGroup(this->name()),
      numReads(statGroup.addScalar("reads", "requests serviced (reads)")),
      numWrites(statGroup.addScalar("writes",
                                    "requests serviced (writes)")),
      totalQueueTicks(statGroup.addScalar(
          "queueTicks", "cumulative ticks requests spent queued"))
{
}

unsigned
Dram::channelFor(Addr addr) const
{
    return (addr / dramInterleaveBytes) % dramChannels;
}

void
Dram::access(const MemRequestPtr &req)
{
    unsigned idx = channelFor(req->addr);
    Channel &ch = channelState[idx];
    ch.queue.push_back(req);
    if (!ch.drainScheduled)
        drainChannel(idx);
}

void
Dram::drainChannel(unsigned idx)
{
    Channel &ch = channelState[idx];
    if (ch.queue.empty()) {
        ch.drainScheduled = false;
        return;
    }

    sim::Tick now = curTick();
    if (ch.busyUntil > now) {
        // Channel occupied: try again when it frees up.
        ch.drainScheduled = true;
        eventq().schedule(ch.busyUntil, [this, idx] {
            channelState[idx].drainScheduled = false;
            drainChannel(idx);
        }, "dram.drain");
        return;
    }

    MemRequestPtr req = std::move(ch.queue.front());
    ch.queue.pop_front();

    totalQueueTicks += static_cast<double>(now - req->issueTick);
    if (req->op == MemOp::Write)
        ++numWrites;
    else
        ++numReads;

    ch.busyUntil = now + dramBurstCycles * dramClockPeriod;
    sim::Tick done = now + dramAccessLatency * dramClockPeriod;
    eventq().schedule(done, [r = std::move(req)] { r->respond(); },
                      "dram.resp");

    if (!ch.queue.empty()) {
        ch.drainScheduled = true;
        eventq().schedule(ch.busyUntil, [this, idx] {
            channelState[idx].drainScheduled = false;
            drainChannel(idx);
        }, "dram.drain");
    }
}

} // namespace ifp::mem
