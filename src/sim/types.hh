/**
 * @file
 * Fundamental simulation types: ticks, cycles and addresses.
 *
 * The simulator counts time in abstract "ticks". A component converts
 * its cycle counts into ticks through its clock's period: every
 * sim::Clocked one through gpuClockPeriod, the DRAM through
 * mem::dramClockPeriod. With the GPU clock of 2 GHz and a tick
 * resolution of 1 ps, one GPU cycle equals 500 ticks.
 */

#ifndef IFP_SIM_TYPES_HH
#define IFP_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace ifp::sim {

/** Absolute simulated time, in picoseconds. */
using Tick = std::uint64_t;

/** Relative time expressed in cycles of some clock domain. */
using Cycles = std::uint64_t;

/** Largest representable tick; used as "never". */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Ticks per second: 1 ps resolution. */
constexpr Tick ticksPerSecond = 1'000'000'000'000ULL;

/** Convert a frequency in Hz into a clock period in ticks. */
constexpr Tick
periodFromFrequency(std::uint64_t hz)
{
    return ticksPerSecond / hz;
}

/**
 * The GPU clock: 2 GHz (Table 1). The CUs, the dispatcher, the L1s,
 * the L2, the SyncMon, the DMA engine and the CP all run on it, and
 * every "GPU cycles" figure in configs and results counts its cycles.
 * The DRAM has a clock of its own (mem::dramClockPeriod).
 */
constexpr Tick gpuClockPeriod = periodFromFrequency(2'000'000'000ULL);

/** Convert microseconds of simulated time into ticks. */
constexpr Tick
ticksFromMicroseconds(std::uint64_t us)
{
    return us * (ticksPerSecond / 1'000'000ULL);
}

} // namespace ifp::sim

namespace ifp::mem {

/** Physical/virtual address within the simulated memory space. */
using Addr = std::uint64_t;

/** The value type transported by memory operations. */
using MemValue = std::int64_t;

} // namespace ifp::mem

#endif // IFP_SIM_TYPES_HH
