/**
 * @file
 * Liveness oracles: refining DEADLOCK into what actually went wrong.
 *
 * The deadlock detector in GpuSystem::run() only knows that the
 * progress signature (memory mutations + completions + context
 * switches) stood still for a whole detection window. The oracle
 * layer samples the machine at every window boundary and classifies
 * such a stall:
 *
 *  - LOST_WAKEUP: a WG is waiting on a condition that has *held* in
 *    functional memory longer than a bound — the wakeup existed but
 *    never reached the waiter (e.g. a dropped resume notification on
 *    MonR with rescue timeouts disabled).
 *  - LIVELOCK: retry-ish activity (Mesa retries of spilled waits,
 *    sleep backoff spins, stall-timeout wakeups) kept accumulating
 *    during the stalled window, but no WG retired — the machine is
 *    busy, not blocked.
 *  - DEADLOCK: neither of the above; the classic circular/stranded
 *    wait.
 *
 * The oracle also carries per-fault recovery accounting: the time
 * from a CU restoration to the first WG swap-in after it.
 */

#ifndef IFP_CORE_LIVENESS_HH
#define IFP_CORE_LIVENESS_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace ifp::core {

/** Final classification of a run. */
enum class Verdict : std::uint8_t
{
    Unknown,     //!< run not classified (should not escape run())
    Complete,    //!< every WG retired
    Deadlock,    //!< no progress, no retry activity, no held condition
    Livelock,    //!< no progress but retries/spins kept accumulating
    LostWakeup,  //!< a waiter's condition held in memory past the bound
    Exhausted,   //!< simulation budget ran out while still progressing
};

/** Printable verdict name ("COMPLETE", "LOST_WAKEUP", ...). */
const char *verdictName(Verdict verdict);

/** One waiting WG observed at a sample point. */
struct WaiterProbe
{
    int wgId = -1;
    std::uint64_t addr = 0;
    std::int64_t expected = 0;
    /** Whether functional memory satisfies the condition right now. */
    bool conditionHolds = false;
};

/** A waiter whose condition held past the bound. */
struct LostWakeupRecord
{
    int wgId = -1;
    std::uint64_t addr = 0;
    std::int64_t expected = 0;
    /** How long the condition had held when flagged, in cycles. */
    sim::Cycles heldCycles = 0;
};

/** Recovery accounting for one CU restoration. */
struct FaultRecovery
{
    /** When the CU came back, in GPU cycles. */
    sim::Cycles restoreCycle = 0;
    /** CU restore to the first WG swap-in, in GPU cycles. */
    sim::Cycles cyclesToFirstSwapIn = 0;
};

/**
 * Stall classifier fed once per deadlock-detection window.
 * All inputs come from the caller (GpuSystem), so this layer depends
 * on nothing but sim types and stays cheap to include.
 */
class LivenessOracle
{
  public:
    /**
     * A waiter counts as lost once its condition has held in memory
     * for @p deadlock_window_cycles GPU cycles: one detection window,
     * which guarantees detection after a single stalled window at any
     * window size.
     */
    explicit LivenessOracle(sim::Cycles deadlock_window_cycles);

    /**
     * Record one detection-window sample.
     * @p waiters       every WG currently waiting on a condition
     * @p retryActivity monotone counter of Mesa retries / spins /
     *                  stall timeouts observed so far
     */
    void sample(sim::Tick now, const std::vector<WaiterProbe> &waiters,
                std::uint64_t retry_activity);

    /**
     * Classify a run that stopped making progress at the last sample.
     * @p queue_empty marks the terminal stall where the event queue
     * drained completely: a held condition then proves a lost wakeup
     * outright (nothing can ever deliver it), regardless of bound —
     * such waiters are flagged into lostWakeups() here.
     */
    Verdict finalizeStall(bool queue_empty);

    /** Waiters flagged as lost (stable, in flagging order). */
    const std::vector<LostWakeupRecord> &lostWakeups() const
    {
        return lost;
    }

  private:
    struct HeldClock
    {
        sim::Tick since = 0;
        std::uint64_t addr = 0;
        std::int64_t expected = 0;
        bool flagged = false;
    };

    sim::Cycles boundCycles;

    /** Condition-held clocks, keyed by WG id. */
    std::unordered_map<int, HeldClock> held;
    std::vector<LostWakeupRecord> lost;

    std::uint64_t lastRetryActivity = 0;
    sim::Tick lastSampleTick = 0;
    bool retryInLastWindow = false;
    bool haveSample = false;
};

} // namespace ifp::core

#endif // IFP_CORE_LIVENESS_HH
