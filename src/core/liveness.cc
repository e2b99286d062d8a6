#include "core/liveness.hh"

#include <algorithm>

namespace ifp::core {

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
      case Verdict::Unknown: return "UNKNOWN";
      case Verdict::Complete: return "COMPLETE";
      case Verdict::Deadlock: return "DEADLOCK";
      case Verdict::Livelock: return "LIVELOCK";
      case Verdict::LostWakeup: return "LOST_WAKEUP";
      case Verdict::Exhausted: return "EXHAUSTED";
    }
    return "?";
}

LivenessOracle::LivenessOracle(sim::Cycles deadlock_window_cycles)
    : boundCycles(deadlock_window_cycles)
{
}

void
LivenessOracle::sample(sim::Tick now,
                       const std::vector<WaiterProbe> &waiters,
                       std::uint64_t retry_activity)
{
    lastSampleTick = now;
    for (const WaiterProbe &probe : waiters) {
        if (!probe.conditionHolds) {
            held.erase(probe.wgId);
            continue;
        }
        auto [it, fresh] = held.try_emplace(
            probe.wgId,
            HeldClock{now, probe.addr, probe.expected, false});
        if (fresh || it->second.flagged)
            continue;
        sim::Cycles held_cycles =
            static_cast<sim::Cycles>((now - it->second.since) /
                                     sim::gpuClockPeriod);
        if (held_cycles >= boundCycles) {
            it->second.flagged = true;
            lost.push_back({probe.wgId, probe.addr, probe.expected,
                            held_cycles});
        }
    }
    // Clocks of WGs that stopped waiting: drop them so a later wait
    // on the same WG starts fresh. (Probes are the full waiter set.)
    std::erase_if(held, [&](const auto &kv) {
        return std::none_of(waiters.begin(), waiters.end(),
                            [&](const WaiterProbe &p) {
                                return p.wgId == kv.first &&
                                       p.conditionHolds;
                            });
    });

    retryInLastWindow = haveSample &&
                        retry_activity != lastRetryActivity;
    lastRetryActivity = retry_activity;
    haveSample = true;
}

Verdict
LivenessOracle::finalizeStall(bool queue_empty)
{
    if (queue_empty) {
        // The queue drained with satisfied conditions outstanding:
        // nothing can ever deliver those wakeups, so the bound does
        // not apply. Flag the holders in WG-id order (the held map is
        // unordered; results must not depend on its layout).
        std::vector<int> ids;
        for (const auto &[wg_id, clock] : held) {
            if (!clock.flagged)
                ids.push_back(wg_id);
        }
        std::sort(ids.begin(), ids.end());
        for (int wg_id : ids) {
            HeldClock &clock = held[wg_id];
            clock.flagged = true;
            lost.push_back(
                {wg_id, clock.addr, clock.expected,
                 static_cast<sim::Cycles>((lastSampleTick - clock.since) /
                                          sim::gpuClockPeriod)});
        }
    }
    if (!lost.empty())
        return Verdict::LostWakeup;
    if (retryInLastWindow)
        return Verdict::Livelock;
    return Verdict::Deadlock;
}

} // namespace ifp::core
