#include "gpu/compute_unit.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "sim/logging.hh"

namespace ifp::gpu {

namespace {

/** Latency of an LDS load or store, in GPU cycles. */
constexpr sim::Cycles ldsLatency = 4;

/** A countdown whose counter never reaches 0. */
constexpr sim::Cycles never = std::numeric_limits<sim::Cycles>::max();

/** The CountdownRole of @p wf's next instruction. */
isa::CountdownRole
roleOf(const Wavefront &wf)
{
    return isa::countdownRole(wf.wg->kernel->code, wf.pc);
}

/**
 * Countdown instructions @p wf issues before it leaves its loop (the
 * bnz that falls through included); never when the counter cannot
 * reach 0, and 0 when @p wf is not in a countdown.
 */
sim::Cycles
countdownLength(const Wavefront &wf)
{
    const isa::CountdownRole role = roleOf(wf);
    if (role == isa::CountdownRole::None)
        return 0;
    const isa::Instr &in = wf.wg->kernel->code[wf.pc];
    const std::int64_t left = wf.reg(in.src0);
    // From the subi, each remaining iteration is a subi and a bnz;
    // from the bnz, the counter has already dropped.
    if (role == isa::CountdownRole::Branch && left == 0)
        return 1;
    if (left <= 0)
        return never;
    const sim::Cycles pairs = 2 * static_cast<sim::Cycles>(left);
    return role == isa::CountdownRole::Sub ? pairs : pairs + 1;
}

/** Apply @p m <= countdownLength(wf) countdown issues to @p wf. */
void
runCountdown(Wavefront &wf, sim::Cycles m)
{
    if (m == 0)
        return;
    wf.instructionsExecuted += m;
    const bool at_branch = roleOf(wf) == isa::CountdownRole::Branch;
    const std::size_t sub = at_branch ? wf.pc - 1 : wf.pc;
    const isa::Reg counter = wf.wg->kernel->code[sub].dst;
    std::int64_t left = wf.reg(counter);
    if (at_branch) {
        --m;
        if (left == 0) {
            wf.pc = sub + 2;  // falls through
            return;
        }
    }
    // m issues from the subi: each pair takes one off the counter.
    left -= static_cast<std::int64_t>(m / 2);
    if (m % 2 == 1) {
        --left;
        wf.pc = sub + 1;
    } else {
        wf.pc = left == 0 ? sub + 2 : sub;
    }
    wf.setReg(counter, left);
}

} // anonymous namespace

ComputeUnit::ComputeUnit(std::string name, sim::EventQueue &eq,
                         unsigned cu_id, mem::MemDevice &l1_dev,
                         mem::BackingStore &backing,
                         mem::MemRequestPool &request_pool,
                         CuListener &cu_listener)
    : Clocked(std::move(name), eq),
      id(cu_id),
      l1(l1_dev),
      store(backing),
      pool(request_pool),
      listener(cu_listener),
      statGroup(this->name()),
      numInstructions(statGroup.addScalar("instructions",
                                          "instructions issued")),
      numAtomics(statGroup.addScalar("atomics",
                                     "atomic instructions issued")),
      numWaitingAtomicsIssued(statGroup.addScalar(
          "waitingAtomics", "waiting atomic instructions issued")),
      numArmWaits(statGroup.addScalar("armWaits",
                                      "wait instructions issued")),
      numSleeps(statGroup.addScalar("sleeps",
                                    "s_sleep instructions issued")),
      numBarriers(statGroup.addScalar("barriers",
                                      "WG barrier arrivals")),
      numStalls(statGroup.addScalar("syncStalls",
                                    "wavefronts entering WaitSync")),
      numRescues(statGroup.addScalar("stallRescues",
                                     "stall rescue timers fired")),
      activeCycles(statGroup.addScalar("activeCycles",
                                       "cycles with >=1 issue"))
{
}

bool
ComputeUnit::canHost(const isa::Kernel &kernel) const
{
    if (offlineFlag)
        return false;
    if (ldsUsed + kernel.ldsBytes > ldsBytesPerCu)
        return false;
    if (resident.size() >= kernel.maxWgsPerCu)
        return false;

    // Greedy least-loaded assignment of the WG's wavefronts.
    std::array<unsigned, simdsPerCu> load{};
    for (unsigned s = 0; s < simdsPerCu; ++s)
        load[s] = simdWfs[s].size();
    for (unsigned w = 0; w < kernel.wavefrontsPerWg(); ++w) {
        auto it = std::min_element(load.begin(), load.end());
        if (*it >= wavefrontsPerSimd)
            return false;
        ++*it;
    }
    return true;
}

void
ComputeUnit::placeWg(WorkGroup *wg)
{
    ifp_assert(canHost(*wg->kernel), "%s cannot host wg%d",
               name().c_str(), wg->id);
    resident.push_back(wg);
    ldsUsed += wg->kernel->ldsBytes;
    wg->cuId = static_cast<int>(id);

    for (auto &wf : wg->wavefronts) {
        unsigned best = 0;
        for (unsigned s = 1; s < simdsPerCu; ++s) {
            if (simdWfs[s].size() < simdWfs[best].size())
                best = s;
        }
        wf->simdSlot = best;
        simdWfs[best].push_back(wf.get());
    }
    for (unsigned s = 0; s < simdsPerCu; ++s)
        rebuildSimd(s);
}

void
ComputeUnit::removeWg(WorkGroup *wg)
{
    auto it = std::find(resident.begin(), resident.end(), wg);
    ifp_assert(it != resident.end(), "%s: wg%d not resident",
               name().c_str(), wg->id);
    resident.erase(it);
    ldsUsed -= wg->kernel->ldsBytes;
    wg->cuId = -1;

    for (unsigned s = 0; s < simdsPerCu; ++s) {
        std::erase_if(simdWfs[s], [wg](const Wavefront *wf) {
            return wf->wg == wg;
        });
        rebuildSimd(s);
        if (rrIndex[s] >= simdWfs[s].size())
            rrIndex[s] = 0;
    }
    drainCallbacks.erase(wg->id);
}

void
ComputeUnit::rebuildSimd(unsigned s)
{
    std::uint64_t ready = 0;
    for (unsigned i = 0; i < simdWfs[s].size(); ++i) {
        Wavefront &wf = *simdWfs[s][i];
        wf.simdPos = i;
        if (wf._state == WfState::Ready)
            ready |= std::uint64_t{1} << i;
    }
    readyMask[s] = ready;
}

void
ComputeUnit::setWfState(Wavefront &wf, WfState next)
{
    ifp_assert(wf.wg->cuId == static_cast<int>(id),
               "%s: wg%d wf%u changes state while not resident",
               name().c_str(), wf.wg->id, wf.idInWg);
    wf._state = next;
    const std::uint64_t bit = std::uint64_t{1} << wf.simdPos;
    if (next == WfState::Ready)
        readyMask[wf.simdSlot] |= bit;
    else
        readyMask[wf.simdSlot] &= ~bit;
}

void
ComputeUnit::activateWg(WorkGroup *wg)
{
    ifp_assert(wg->cuId == static_cast<int>(id),
               "activating wg%d on wrong CU", wg->id);
    wg->setState(WgState::Running, curTick());
    sim::emitTrace(trace, curTick(), sim::TraceEventKind::WgActivated,
                   wg->id, static_cast<int>(id));
    for (auto &wf : wg->wavefronts) {
        if (wf->state() == WfState::WaitSync)
            wakeWf(*wf);
    }
    wg->hasWaitCond = false;
    wg->resumePending = false;
    notifyReady();
}

void
ComputeUnit::resumeWaitingWfs(WorkGroup *wg)
{
    for (auto &wf : wg->wavefronts) {
        if (wf->state() == WfState::WaitSync)
            wakeWf(*wf);
    }
    wg->hasWaitCond = false;
    notifyReady();
}

void
ComputeUnit::beginDrain(WorkGroup *wg, std::function<void()> drained)
{
    ifp_assert(wg->state == WgState::SwitchingOut,
               "draining wg%d in state %s", wg->id,
               wgStateName(wg->state));
    // Cut sleeps short; their wake events become stale via the epoch.
    for (auto &wf : wg->wavefronts) {
        if (wf->state() == WfState::Sleeping)
            wakeWf(*wf);
    }
    drainCallbacks[wg->id] = std::move(drained);
    checkDrained(wg);
}

void
ComputeUnit::checkDrained(WorkGroup *wg)
{
    auto it = drainCallbacks.find(wg->id);
    if (it == drainCallbacks.end())
        return;
    for (const auto &wf : wg->wavefronts) {
        if (wf->state() == WfState::WaitMem ||
            wf->state() == WfState::Busy) {
            return;
        }
    }
    auto cb = std::move(it->second);
    drainCallbacks.erase(it);
    cb();
}

void
ComputeUnit::wakeWf(Wavefront &wf)
{
    ifp_assert(wf.state() != WfState::Done, "waking a done wavefront");
    sim::Tick now = curTick();
    if (wf.state() == WfState::WaitSync || wf.state() == WfState::Sleeping)
        wf.wg->endWait(now, wf.state() == WfState::Sleeping);
    setWfState(wf, WfState::Ready);
    ++wf.waitEpoch;
    notifyReady();
}

void
ComputeUnit::notifyReady()
{
    if (tickEvent.scheduled() || !anyIssuable())
        return;
    eventq().schedule(&tickEvent, clockEdge(1));
}

inline unsigned
ComputeUnit::issueCandidates(unsigned s, unsigned *out,
                             unsigned max) const
{
    // Round-robin scan order: Ready wavefronts at or after rrIndex[s],
    // then those before it; each must also belong to a Running WG.
    const std::uint64_t ready = readyMask[s];
    const std::uint64_t from_rr = ~std::uint64_t{0} << rrIndex[s];
    unsigned found = 0;
    for (std::uint64_t part : {ready & from_rr, ready & ~from_rr}) {
        for (; part != 0; part &= part - 1) {
            const unsigned idx = std::countr_zero(part);
            if (simdWfs[s][idx]->wg->state != WgState::Running)
                continue;
            out[found++] = idx;
            if (found == max)
                return found;
        }
    }
    return found;
}

bool
ComputeUnit::anyIssuable() const
{
    for (unsigned s = 0; s < simdsPerCu; ++s) {
        unsigned idx = 0;
        if (issueCandidates(s, &idx, 1) > 0)
            return true;
    }
    return false;
}

bool
ComputeUnit::oraclePick(unsigned s, unsigned &idx) const
{
    // Candidate 0 is the stock pick; the oracle may issue any of them
    // (SIMT arbitration order is unspecified).
    unsigned cands[wavefrontsPerSimd];
    const unsigned found = issueCandidates(s, cands, wavefrontsPerSimd);
    if (found == 0)
        return false;
    unsigned pick = 0;
    if (found > 1) {
        int actors[wavefrontsPerSimd];
        for (unsigned c = 0; c < found; ++c)
            actors[c] = simdWfs[s][cands[c]]->wg->id;
        pick = oracle->chooseWithActors(sim::ChoicePoint::WavefrontIssue,
                                        found, 0, actors);
    }
    idx = cands[pick];
    return true;
}

void
ComputeUnit::tick()
{
    if (issuedCountdown && coast())
        return;

    bool issued = false;
    issuedCountdown = false;
    for (unsigned s = 0; s < simdsPerCu; ++s) {
        unsigned idx = 0;
        const bool found = oracle ? oraclePick(s, idx)
                                  : issueCandidates(s, &idx, 1) > 0;
        if (!found)
            continue;
        auto &simd = simdWfs[s];
        rrIndex[s] = idx + 1 < simd.size() ? idx + 1 : 0;
        Wavefront &wf = *simd[idx];
        if (!oracle && roleOf(wf) != isa::CountdownRole::None)
            issuedCountdown = true;
        executeInstr(wf);
        issued = true;
    }

    if (issued)
        ++activeCycles;
    notifyReady();
}

sim::Cycles
ComputeUnit::countdownCycles() const
{
    sim::Cycles cycles = never;
    bool any = false;
    for (unsigned s = 0; s < simdsPerCu; ++s) {
        unsigned cands[wavefrontsPerSimd];
        const unsigned k = issueCandidates(s, cands, wavefrontsPerSimd);
        for (unsigned j = 0; j < k; ++j) {
            // Round-robin gives candidate j cycles j, j + k, j + 2k...
            // so it leaves its loop at cycle j + length * k.
            const sim::Cycles length = countdownLength(*simdWfs[s][cands[j]]);
            if (length == 0)
                return 0;
            if (length <= (never - j) / k)
                cycles = std::min(cycles, j + length * k);
        }
        any = any || k > 0;
    }
    return any ? cycles : 0;
}

void
ComputeUnit::retireCountdowns(sim::Cycles n)
{
    for (unsigned s = 0; s < simdsPerCu; ++s) {
        unsigned cands[wavefrontsPerSimd];
        const unsigned k = issueCandidates(s, cands, wavefrontsPerSimd);
        if (k == 0)
            continue;
        for (unsigned j = 0; j < k; ++j)
            runCountdown(*simdWfs[s][cands[j]], n / k + (j < n % k));
        const unsigned last = cands[(n - 1) % k];
        rrIndex[s] = last + 1 < simdWfs[s].size() ? last + 1 : 0;
        numInstructions += static_cast<double>(n);
    }
    activeCycles += static_cast<double>(n);
    issuedCountdown = true;
}

bool
ComputeUnit::coast()
{
    // Nothing reaches a counting-down SIMD before the next event: its
    // instructions touch only registers and pcs and schedule nothing,
    // and its CU's tick re-arms one cycle on. A window of n >= 2 also
    // puts every armed peer's tick at now (one armed for the next
    // cycle would be the next event). The cheapest bound goes first:
    // most attempts end at it, behind a peer that already ticked.
    sim::EventQueue &eq = eventq();
    const sim::Tick now = curTick();
    const sim::Cycles cycle = now / sim::gpuClockPeriod;
    // Stop at the first edge not before the next event, and before
    // the limit's last edge, which ticks as usual so that simulate()
    // returns at the same curTick().
    const sim::Tick next = eq.nextAfterNow();
    const sim::Cycles next_edge = next / sim::gpuClockPeriod +
                                  (next % sim::gpuClockPeriod != 0);
    sim::Cycles n =
        std::min(next_edge, eq.limit() / sim::gpuClockPeriod) - cycle;
    if (n < 2)
        return false;
    n = std::min(n, countdownCycles());
    if (n < 2)
        return false;
    std::size_t armed = 0;
    for (const ComputeUnit *peer : peers) {
        if (peer == this || !peer->tickEvent.scheduled())
            continue;
        n = std::min(n, peer->countdownCycles());
        if (n < 2)
            return false;
        ++armed;
    }
    if (eq.dueNow() != armed)
        return false;

    for (ComputeUnit *peer : peers) {
        if (peer == this || peer->tickEvent.scheduled())
            peer->retireCountdowns(n);
    }
    // Per cycle, this CU ticks first and the peers follow in queue
    // order, so their re-arms at the window's last cycle land in that
    // order, after every event already due at the window's end.
    const sim::Tick until = now + n * sim::gpuClockPeriod;
    eq.schedule(&tickEvent, until);
    eq.moveDueNow(until);
    return true;
}

void
ComputeUnit::doBarrier(Wavefront &wf)
{
    WorkGroup *wg = wf.wg;
    ++numBarriers;
    ++wf.pc;
    setWfState(wf, WfState::WaitBarrier);
    ++wg->barrierArrived;

    unsigned alive = wg->wavefronts.size() - wg->doneWfs;
    if (wg->barrierArrived >= alive) {
        wg->barrierArrived = 0;
        for (auto &other : wg->wavefronts) {
            if (other->state() == WfState::WaitBarrier) {
                setWfState(*other, WfState::Ready);
                ++other->waitEpoch;
            }
        }
        notifyReady();
    }
    wg->refreshRunBucket(curTick());
}

void
ComputeUnit::executeInstr(Wavefront &wf)
{
    const isa::Kernel &kernel = *wf.wg->kernel;
    ifp_assert(wf.pc < kernel.code.size(),
               "wg%d wf%u pc %zu past end of kernel '%s'", wf.wg->id,
               wf.idInWg, wf.pc, kernel.name.c_str());
    const isa::Instr &in = kernel.code[wf.pc];
    ++wf.instructionsExecuted;
    ++numInstructions;

    using isa::Opcode;
    auto rhs = [&](const isa::Instr &i) {
        return i.useImm ? i.imm : wf.reg(i.src1);
    };

    switch (in.op) {
      case Opcode::Nop:
        ++wf.pc;
        return;
      case Opcode::Movi:
        wf.setReg(in.dst, in.imm);
        ++wf.pc;
        return;
      case Opcode::Mov:
        wf.setReg(in.dst, wf.reg(in.src0));
        ++wf.pc;
        return;
      case Opcode::Add:
        wf.setReg(in.dst, wf.reg(in.src0) + rhs(in));
        ++wf.pc;
        return;
      case Opcode::Sub:
        wf.setReg(in.dst, wf.reg(in.src0) - rhs(in));
        ++wf.pc;
        return;
      case Opcode::Mul:
        wf.setReg(in.dst, wf.reg(in.src0) * rhs(in));
        ++wf.pc;
        return;
      case Opcode::Div: {
        std::int64_t d = rhs(in);
        ifp_assert(d != 0, "division by zero in kernel '%s'",
                   kernel.name.c_str());
        wf.setReg(in.dst, wf.reg(in.src0) / d);
        ++wf.pc;
        return;
      }
      case Opcode::Rem: {
        std::int64_t d = rhs(in);
        ifp_assert(d != 0, "remainder by zero in kernel '%s'",
                   kernel.name.c_str());
        wf.setReg(in.dst, wf.reg(in.src0) % d);
        ++wf.pc;
        return;
      }
      case Opcode::And:
        wf.setReg(in.dst, wf.reg(in.src0) & rhs(in));
        ++wf.pc;
        return;
      case Opcode::Or:
        wf.setReg(in.dst, wf.reg(in.src0) | rhs(in));
        ++wf.pc;
        return;
      case Opcode::Xor:
        wf.setReg(in.dst, wf.reg(in.src0) ^ rhs(in));
        ++wf.pc;
        return;
      case Opcode::Shl:
        wf.setReg(in.dst, wf.reg(in.src0) << rhs(in));
        ++wf.pc;
        return;
      case Opcode::Shr:
        wf.setReg(in.dst,
                  static_cast<std::int64_t>(
                      static_cast<std::uint64_t>(wf.reg(in.src0)) >>
                      rhs(in)));
        ++wf.pc;
        return;
      case Opcode::CmpEq:
        wf.setReg(in.dst, wf.reg(in.src0) == rhs(in) ? 1 : 0);
        ++wf.pc;
        return;
      case Opcode::CmpNe:
        wf.setReg(in.dst, wf.reg(in.src0) != rhs(in) ? 1 : 0);
        ++wf.pc;
        return;
      case Opcode::CmpLt:
        wf.setReg(in.dst, wf.reg(in.src0) < rhs(in) ? 1 : 0);
        ++wf.pc;
        return;
      case Opcode::CmpLe:
        wf.setReg(in.dst, wf.reg(in.src0) <= rhs(in) ? 1 : 0);
        ++wf.pc;
        return;
      case Opcode::Bz:
        wf.pc = wf.reg(in.src0) == 0 ? in.imm : wf.pc + 1;
        return;
      case Opcode::Bnz:
        wf.pc = wf.reg(in.src0) != 0 ? in.imm : wf.pc + 1;
        return;
      case Opcode::Br:
        wf.pc = in.imm;
        return;
      case Opcode::LdLds:
        wf.setReg(in.dst,
                  wf.wg->ldsRead(wf.reg(in.src0) + in.imm));
        ++wf.pc;
        setWfState(wf, WfState::Busy);
        scheduleWake(wf, ldsLatency);
        return;
      case Opcode::StLds:
        wf.wg->ldsWrite(wf.reg(in.src0) + in.imm, wf.reg(in.src1));
        ++wf.pc;
        setWfState(wf, WfState::Busy);
        scheduleWake(wf, ldsLatency);
        return;
      case Opcode::Ld:
      case Opcode::St:
      case Opcode::Atom:
      case Opcode::AtomWait:
      case Opcode::ArmWait:
        issueMemRequest(wf, in);
        return;
      case Opcode::SleepR: {
        ++numSleeps;
        std::int64_t cycles = wf.reg(in.src0);
        ifp_assert(cycles > 0, "s_sleep with non-positive duration");
        ++wf.pc;
        setWfState(wf, WfState::Sleeping);
        wf.wg->beginWait(curTick(), /*spin=*/true);
        scheduleWake(wf, static_cast<sim::Cycles>(cycles));
        return;
      }
      case Opcode::Valu:
        ++wf.pc;
        setWfState(wf, WfState::Busy);
        scheduleWake(wf, static_cast<sim::Cycles>(in.imm));
        return;
      case Opcode::Bar:
        doBarrier(wf);
        return;
      case Opcode::Halt: {
        setWfState(wf, WfState::Done);
        WorkGroup *wg = wf.wg;
        ++wg->doneWfs;
        // Late arrivals at a barrier must not wait for done WFs.
        if (wg->barrierArrived > 0 &&
            wg->barrierArrived >= wg->wavefronts.size() - wg->doneWfs) {
            wg->barrierArrived = 0;
            for (auto &other : wg->wavefronts) {
                if (other->state() == WfState::WaitBarrier) {
                    setWfState(*other, WfState::Ready);
                    ++other->waitEpoch;
                }
            }
        }
        if (wg->complete()) {
            wg->completeTick = curTick();
            // Defer so the listener can safely mutate CU state.
            eventq().schedule(curTick(), [this, wg] {
                listener.wgCompleted(wg);
            }, "cu.wgDone");
        } else {
            wg->refreshRunBucket(curTick());
        }
        return;
      }
    }
    ifp_panic("unhandled opcode in kernel '%s'", kernel.name.c_str());
}

void
ComputeUnit::issueMemRequest(Wavefront &wf, const isa::Instr &in)
{
    using isa::Opcode;
    mem::MemRequestPtr req = pool.allocate();
    req->addr = static_cast<mem::Addr>(wf.reg(in.src0) + in.imm);
    req->size = 8;
    req->cuId = static_cast<int>(id);
    req->wgId = wf.wg->id;
    req->wfId = static_cast<int>(wf.idInWg);
    req->issueTick = curTick();
    req->acquire = in.acquire;
    req->release = in.release;

    switch (in.op) {
      case Opcode::Ld:
        req->op = mem::MemOp::Read;
        break;
      case Opcode::St:
        req->op = mem::MemOp::Write;
        req->operand = wf.reg(in.src1);
        break;
      case Opcode::Atom:
      case Opcode::AtomWait:
        req->op = mem::MemOp::Atomic;
        req->aop = in.aop;
        req->operand = wf.reg(in.src1);
        req->compare = wf.reg(in.src2);
        req->waiting = in.op == Opcode::AtomWait;
        req->expected = wf.reg(in.src2);
        ++numAtomics;
        ++wf.atomicsExecuted;
        if (req->waiting)
            ++numWaitingAtomicsIssued;
        break;
      case Opcode::ArmWait:
        req->op = mem::MemOp::ArmWait;
        req->expected = wf.reg(in.src1);
        ++numArmWaits;
        // The wait instruction completes architecturally; waiting
        // happens via the response's WaitDecision.
        ++wf.pc;
        break;
      default:
        ifp_panic("not a memory opcode");
    }

    setWfState(wf, WfState::WaitMem);
    ++wf.wg->memWaitWfs;
    wf.wg->refreshRunBucket(curTick());
    // The transport chain owns the request until it responds; the
    // typed responder slot cannot form an ownership cycle the way an
    // owning std::function capture could.
    req->setResponder(this, reinterpret_cast<std::uint64_t>(&wf));
    l1.access(req);
}

void
ComputeUnit::onMemResponse(mem::MemRequest &req, std::uint64_t tag)
{
    memResponse(*reinterpret_cast<Wavefront *>(tag), req);
}

void
ComputeUnit::memResponse(Wavefront &wf, const mem::MemRequest &req)
{
    ifp_assert(wf.state() == WfState::WaitMem,
               "memory response for wg%d wf%u in state %d", wf.wg->id,
               wf.idInWg, static_cast<int>(wf.state()));
    ifp_assert(wf.wg->memWaitWfs > 0, "wg%d memWait underflow",
               wf.wg->id);
    --wf.wg->memWaitWfs;

    switch (req.op) {
      case mem::MemOp::Read: {
        const isa::Instr &in = wf.wg->kernel->code[wf.pc];
        wf.setReg(in.dst, store.read(req.addr, 8));
        ++wf.pc;
        setWfState(wf, WfState::Ready);
        break;
      }
      case mem::MemOp::Write:
        ++wf.pc;
        setWfState(wf, WfState::Ready);
        break;
      case mem::MemOp::Atomic: {
        if (!req.waitFailed) {
            const isa::Instr &in = wf.wg->kernel->code[wf.pc];
            wf.setReg(in.dst, req.result);
            ++wf.pc;
            setWfState(wf, WfState::Ready);
        } else {
            // Keep pc at the waiting atomic: Mesa semantics, the
            // instruction re-executes when the WG resumes.
            setWfState(wf, WfState::Ready);
            applyWaitDecision(wf, req.addr, waitExpectedOf(req),
                              req.decision);
        }
        break;
      }
      case mem::MemOp::ArmWait:
        // pc already advanced at issue.
        setWfState(wf, WfState::Ready);
        applyWaitDecision(wf, req.addr, req.expected, req.decision);
        break;
    }

    wf.wg->refreshRunBucket(curTick());
    if (wf.state() == WfState::Ready)
        notifyReady();
    checkDrained(wf.wg);
}

void
ComputeUnit::applyWaitDecision(Wavefront &wf, mem::Addr addr,
                               mem::MemValue expected,
                               const mem::WaitDecision &decision)
{
    WorkGroup *wg = wf.wg;
    switch (decision.kind) {
      case mem::WaitKind::Proceed:
      case mem::WaitKind::Retry:
        // Busy retry (Monitor Log full / no controller installed).
        setWfState(wf, WfState::Ready);
        return;
      case mem::WaitKind::Stall: {
        ++numStalls;
        setWfState(wf, WfState::WaitSync);
        wg->beginWait(curTick());
        wg->hasWaitCond = true;
        wg->waitAddr = addr;
        wg->waitExpected = expected;
        sim::emitTrace(trace, curTick(),
                       sim::TraceEventKind::WgStalled, wg->id,
                       static_cast<int>(id), sim::StallReason::Waiting,
                       addr, static_cast<std::int64_t>(expected));
        if (decision.timeoutCycles > 0)
            scheduleRescue(wf, addr, expected, decision.timeoutCycles);
        return;
      }
      case mem::WaitKind::Switch: {
        ++numStalls;
        setWfState(wf, WfState::WaitSync);
        wg->beginWait(curTick());
        wg->hasWaitCond = true;
        wg->waitAddr = addr;
        wg->waitExpected = expected;
        sim::emitTrace(trace, curTick(),
                       sim::TraceEventKind::WgStalled, wg->id,
                       static_cast<int>(id), sim::StallReason::Waiting,
                       addr, static_cast<std::int64_t>(expected));
        sim::Cycles rescue = decision.timeoutCycles;
        // Defer: the listener re-enters CU residency management.
        eventq().schedule(curTick(), [this, wg, rescue] {
            listener.wgWantsSwitch(wg, rescue);
        }, "cu.switchReq");
        return;
      }
    }
}

void
ComputeUnit::scheduleWake(Wavefront &wf, sim::Cycles cycles)
{
    Wavefront *wfp = &wf;
    std::uint64_t epoch = wf.waitEpoch;
    eventq().schedule(clockEdge(cycles), [this, wfp, epoch] {
        if (wfp->waitEpoch != epoch)
            return;  // woken by another path (drain, resume)
        if (wfp->state() != WfState::Busy &&
            wfp->state() != WfState::Sleeping) {
            return;
        }
        wakeWf(*wfp);
        checkDrained(wfp->wg);
    }, "cu.wake");
}

void
ComputeUnit::scheduleRescue(Wavefront &wf, mem::Addr addr,
                            mem::MemValue expected, sim::Cycles cycles)
{
    Wavefront *wfp = &wf;
    std::uint64_t epoch = wf.waitEpoch;
    eventq().schedule(clockEdge(cycles),
                      [this, wfp, epoch, addr, expected] {
        if (wfp->waitEpoch != epoch ||
            wfp->state() != WfState::WaitSync) {
            return;  // resumed in the meantime
        }
        if (wfp->wg->cuId != static_cast<int>(id) ||
            wfp->wg->state != WgState::Running) {
            return;  // swapped out: the CP rescue owns it now
        }
        ++numRescues;
        mem::WaitDecision next{mem::WaitKind::Proceed, 0};
        if (observer) {
            next = observer->onStallTimeout(wfp->wg->id, addr,
                                            expected);
        }
        switch (next.kind) {
          case mem::WaitKind::Proceed:
          case mem::WaitKind::Retry:
            wfp->wg->hasWaitCond = false;
            wakeWf(*wfp);
            return;
          case mem::WaitKind::Stall:
            // Re-arm with the controller's new deadline. Bump the
            // epoch so only the new timer is live.
            ++wfp->waitEpoch;
            scheduleRescue(*wfp, addr, expected,
                           next.timeoutCycles > 0 ? next.timeoutCycles
                                                  : 1);
            return;
          case mem::WaitKind::Switch: {
            WorkGroup *wg = wfp->wg;
            sim::Cycles rescue = next.timeoutCycles;
            eventq().schedule(curTick(), [this, wg, rescue] {
                listener.wgWantsSwitch(wg, rescue);
            }, "cu.switchReq");
            return;
          }
        }
    }, "cu.rescue");
}

} // namespace ifp::gpu
