#include "gpu/workgroup.hh"

#include "sim/logging.hh"

namespace ifp::gpu {

const char *
wgStateName(WgState state)
{
    switch (state) {
      case WgState::Pending: return "pending";
      case WgState::Dispatching: return "dispatching";
      case WgState::Running: return "running";
      case WgState::SwitchingOut: return "switching-out";
      case WgState::SwappedOut: return "swapped-out";
      case WgState::ReadySwapIn: return "ready-swap-in";
      case WgState::SwitchingIn: return "switching-in";
      case WgState::Done: return "done";
    }
    return "?";
}

WorkGroup::WorkGroup(int wg_id, const isa::Kernel &k,
                     sim::Tick create_tick, int abi_wg_id)
    : id(wg_id), kernel(&k), lds(k.ldsBytes, 0),
      bucketSince(create_tick)
{
    if (abi_wg_id < 0)
        abi_wg_id = wg_id;
    unsigned num_wfs = k.wavefrontsPerWg();
    wavefronts.reserve(num_wfs);
    for (unsigned i = 0; i < num_wfs; ++i) {
        wavefronts.push_back(std::make_unique<Wavefront>(this, i));
        wavefronts.back()->initRegs(k, abi_wg_id);
    }
}

std::int64_t
WorkGroup::ldsRead(std::uint64_t offset) const
{
    ifp_assert(offset + 8 <= lds.size(),
               "wg%d LDS read out of bounds (%llu/%zu)", id,
               static_cast<unsigned long long>(offset), lds.size());
    std::uint64_t raw = 0;
    for (unsigned i = 0; i < 8; ++i)
        raw |= static_cast<std::uint64_t>(lds[offset + i]) << (8 * i);
    return static_cast<std::int64_t>(raw);
}

void
WorkGroup::ldsWrite(std::uint64_t offset, std::int64_t value)
{
    ifp_assert(offset + 8 <= lds.size(),
               "wg%d LDS write out of bounds (%llu/%zu)", id,
               static_cast<unsigned long long>(offset), lds.size());
    auto raw = static_cast<std::uint64_t>(value);
    for (unsigned i = 0; i < 8; ++i)
        lds[offset + i] = static_cast<std::uint8_t>(raw >> (8 * i));
}

void
WorkGroup::beginWait(sim::Tick now, bool spin)
{
    if (waitingWfs == 0)
        waitStartTick = now;
    ++waitingWfs;
    if (spin)
        ++sleepingWfs;
    refreshRunBucket(now);
}

void
WorkGroup::endWait(sim::Tick now, bool spin)
{
    ifp_assert(waitingWfs > 0, "wg%d endWait underflow", id);
    --waitingWfs;
    if (spin) {
        ifp_assert(sleepingWfs > 0, "wg%d sleeping underflow", id);
        --sleepingWfs;
    }
    if (waitingWfs == 0)
        waitingTicks += now - waitStartTick;
    refreshRunBucket(now);
}

namespace {

// Bucket a non-Running lifecycle state falls into. Running is refined
// separately from wavefront counters; Done closes the books.
sim::StallReason
bucketForState(WgState s)
{
    switch (s) {
      case WgState::Pending:
      case WgState::Dispatching:
      case WgState::ReadySwapIn:
        return sim::StallReason::DispatchQueue;
      case WgState::SwitchingOut:
      case WgState::SwitchingIn:
        return sim::StallReason::SaveRestore;
      case WgState::SwappedOut:
        return sim::StallReason::Waiting;
      case WgState::Running:
      case WgState::Done:
        break;
    }
    return sim::StallReason::Running;
}

} // anonymous namespace

void
WorkGroup::setState(WgState next, sim::Tick now)
{
    state = next;
    if (next == WgState::Done) {
        closeAccounting(now);
    } else if (next == WgState::Running) {
        switchBucket(runBucketNow(), now);
    } else {
        switchBucket(bucketForState(next), now);
    }
}

sim::StallReason
WorkGroup::runBucketNow() const
{
    // Sync waiters dominate sleepers dominate memory: a WG with one WF
    // held on a condition is waiting no matter what the others do.
    if (waitingWfs > sleepingWfs)
        return sim::StallReason::Waiting;
    if (sleepingWfs > 0)
        return sim::StallReason::Spin;
    unsigned live = static_cast<unsigned>(wavefronts.size()) - doneWfs;
    if (memWaitWfs > 0 && memWaitWfs + barrierArrived >= live)
        return sim::StallReason::Memory;
    return sim::StallReason::Running;
}

void
WorkGroup::refreshRunBucket(sim::Tick now)
{
    if (booksClosed || state != WgState::Running)
        return;
    switchBucket(runBucketNow(), now);
}

void
WorkGroup::switchBucket(sim::StallReason next, sim::Tick now)
{
    if (booksClosed || next == bucket)
        return;
    reasonTicks[sim::stallIndex(bucket)] += now - bucketSince;
    bucket = next;
    bucketSince = now;
}

void
WorkGroup::closeAccounting(sim::Tick now)
{
    if (booksClosed)
        return;
    reasonTicks[sim::stallIndex(bucket)] += now - bucketSince;
    bucketSince = now;
    booksClosed = true;
}

} // namespace ifp::gpu
