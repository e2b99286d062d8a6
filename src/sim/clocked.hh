/**
 * @file
 * Named simulation objects and clock-domain helpers.
 *
 * SimObject gives every model a name for tracing and stats registration.
 * Clocked is a SimObject on the GPU clock (sim::gpuClockPeriod) with
 * the cycle/tick conversions its timing models need (after gem5's
 * ClockedObject). The DRAM, the one device on another clock, is a
 * plain SimObject that converts with mem::dramClockPeriod.
 */

#ifndef IFP_SIM_CLOCKED_HH
#define IFP_SIM_CLOCKED_HH

#include <string>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace ifp::sim {

/**
 * Base class for every named component in the simulated system.
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue &eq)
        : _name(std::move(name)), _eventq(eq)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    /** Hierarchical instance name, e.g. "gpu.cu3.l1". */
    const std::string &name() const { return _name; }

    /** The event queue this object schedules on. */
    EventQueue &eventq() const { return _eventq; }

    /** Current simulated time. */
    Tick curTick() const { return _eventq.curTick(); }

  private:
    std::string _name;
    EventQueue &_eventq;
};

/**
 * A SimObject on the GPU clock.
 */
class Clocked : public SimObject
{
  public:
    using SimObject::SimObject;

    /**
     * The tick of the next clock edge at least @p cycles cycles in the
     * future. clockEdge(0) is the current edge if we sit exactly on one,
     * otherwise the next edge.
     */
    Tick
    clockEdge(Cycles cycles = 0) const
    {
        Tick now = curTick();
        Tick edge = ((now + gpuClockPeriod - 1) / gpuClockPeriod) *
                    gpuClockPeriod;
        return edge + cycles * gpuClockPeriod;
    }

    /** Convert a count of GPU cycles into ticks. */
    Tick cyclesToTicks(Cycles cycles) const { return cycles * gpuClockPeriod; }
};

} // namespace ifp::sim

#endif // IFP_SIM_CLOCKED_HH
