/**
 * @file
 * The waiting-policy design space the paper evaluates.
 *
 * A Policy selects (a) how workload kernels express waiting (the
 * codegen style) and (b) which hardware controller is installed:
 *
 *   Policy     codegen style   controller          IFP when oversub.?
 *   Baseline   busy-wait       none                no (deadlocks)
 *   Sleep      s_sleep backoff none                no (deadlocks)
 *   Timeout    waiting atomics fixed interval      yes
 *   MonRS-All  wait instrs     SyncMon (sporadic)  yes
 *   MonR-All   wait instrs     SyncMon (check)     yes (racy arm)
 *   MonNR-All  waiting atomics SyncMon (all)       yes
 *   MonNR-One  waiting atomics SyncMon (one)       yes
 *   AWG        waiting atomics SyncMon (predict)   yes
 *   MinResume  waiting atomics oracle              yes (Figure 9)
 */

#ifndef IFP_CORE_POLICY_HH
#define IFP_CORE_POLICY_HH

#include <string>

#include "sim/types.hh"
#include "syncmon/sync_monitor.hh"

namespace ifp::core {

/** The evaluated waiting policies. */
enum class Policy
{
    Baseline,
    Sleep,
    Timeout,
    MonRSAll,
    MonRAll,
    MonNRAll,
    MonNROne,
    Awg,
    MinResume,
};

/** How kernels express waiting for a given policy. */
enum class SyncStyle
{
    Busy,          //!< spin on regular atomics
    SleepBackoff,  //!< spin with exponential-backoff s_sleep
    WaitInstr,     //!< check + wait-instruction (MonR/MonRS)
    WaitAtomic,    //!< waiting atomics (Timeout/MonNR/AWG)
};

/** Parameters of a policy instance. */
struct PolicyConfig
{
    Policy policy = Policy::Awg;
    /** Timeout policy: the fixed stall/switch interval. */
    sim::Cycles timeoutIntervalCycles = 20'000;
    /** Sleep policy: maximum backoff interval. */
    sim::Cycles sleepMaxBackoffCycles = 16'384;
    syncmon::SyncMonConfig syncmon;
};

/** The codegen style a policy requires. */
constexpr SyncStyle
styleFor(Policy policy)
{
    switch (policy) {
      case Policy::Baseline:
        return SyncStyle::Busy;
      case Policy::Sleep:
        return SyncStyle::SleepBackoff;
      case Policy::MonRSAll:
      case Policy::MonRAll:
        return SyncStyle::WaitInstr;
      case Policy::Timeout:
      case Policy::MonNRAll:
      case Policy::MonNROne:
      case Policy::Awg:
      case Policy::MinResume:
        return SyncStyle::WaitAtomic;
    }
    return SyncStyle::Busy;
}

/**
 * Whether the policy strands switched-out WGs. Current GPUs can
 * pre-empt WGs but lack firmware to switch an individual WG back in —
 * exactly the capability the paper's CP extension adds. Without it,
 * oversubscribed runs deadlock.
 */
constexpr bool
deadlockProne(Policy policy)
{
    return policy == Policy::Baseline || policy == Policy::Sleep;
}

/** The SyncMon mode implementing a monitor-based policy. */
constexpr syncmon::SyncMonMode
syncMonModeFor(Policy policy)
{
    switch (policy) {
      case Policy::MonRSAll: return syncmon::SyncMonMode::MonRSAll;
      case Policy::MonRAll: return syncmon::SyncMonMode::MonRAll;
      case Policy::MonNRAll: return syncmon::SyncMonMode::MonNRAll;
      case Policy::MonNROne: return syncmon::SyncMonMode::MonNROne;
      case Policy::Awg: return syncmon::SyncMonMode::Awg;
      case Policy::MinResume: return syncmon::SyncMonMode::MinResume;
      default: break;
    }
    return syncmon::SyncMonMode::Awg;
}

/** True for the policies driven by a SyncMonController. */
constexpr bool
usesSyncMon(Policy policy)
{
    switch (policy) {
      case Policy::MonRSAll:
      case Policy::MonRAll:
      case Policy::MonNRAll:
      case Policy::MonNROne:
      case Policy::Awg:
      case Policy::MinResume:
        return true;
      default:
        return false;
    }
}

/** Printable name, matching the paper's figures. */
const char *policyName(Policy policy);

} // namespace ifp::core

#endif // IFP_CORE_POLICY_HH
