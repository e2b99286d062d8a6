#include "gpu/compute_unit.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ifp::gpu {

ComputeUnit::ComputeUnit(std::string name, sim::EventQueue &eq,
                         unsigned cu_id, const GpuConfig &cfg,
                         mem::MemDevice &l1_dev,
                         mem::BackingStore &backing,
                         mem::MemRequestPool &request_pool)
    : Clocked(std::move(name), eq, cfg.clockPeriod),
      id(cu_id),
      config(cfg),
      l1(l1_dev),
      store(backing),
      pool(request_pool),
      simdWfs(cfg.simdsPerCu),
      rrIndex(cfg.simdsPerCu, 0),
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
    if (ldsUsed + kernel.ldsBytes > config.ldsBytesPerCu)
        return false;
    if (resident.size() >= kernel.maxWgsPerCu)
        return false;

    // Greedy least-loaded assignment of the WG's wavefronts.
    std::vector<unsigned> load(config.simdsPerCu);
    for (unsigned s = 0; s < config.simdsPerCu; ++s)
        load[s] = simdWfs[s].size();
    for (unsigned w = 0; w < kernel.wavefrontsPerWg(); ++w) {
        auto it = std::min_element(load.begin(), load.end());
        if (*it >= config.wavefrontsPerSimd)
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
        for (unsigned s = 1; s < config.simdsPerCu; ++s) {
            if (simdWfs[s].size() < simdWfs[best].size())
                best = s;
        }
        wf->simdSlot = best;
        simdWfs[best].push_back(wf.get());
    }
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

    for (auto &simd : simdWfs) {
        std::erase_if(simd, [wg](const Wavefront *wf) {
            return wf->wg == wg;
        });
    }
    for (unsigned s = 0; s < config.simdsPerCu; ++s) {
        if (rrIndex[s] >= simdWfs[s].size())
            rrIndex[s] = 0;
    }
    drainCallbacks.erase(wg->id);
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
        if (wf->state == WfState::WaitSync)
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
        if (wf->state == WfState::WaitSync)
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
        if (wf->state == WfState::Sleeping)
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
        if (wf->state == WfState::WaitMem || wf->state == WfState::Busy)
            return;
    }
    auto cb = std::move(it->second);
    drainCallbacks.erase(it);
    cb();
}

void
ComputeUnit::wakeWf(Wavefront &wf)
{
    ifp_assert(wf.state != WfState::Done, "waking a done wavefront");
    sim::Tick now = curTick();
    if (wf.state == WfState::WaitSync || wf.state == WfState::Sleeping)
        wf.wg->endWait(now, wf.state == WfState::Sleeping);
    wf.state = WfState::Ready;
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

bool
ComputeUnit::issuable(const Wavefront &wf) const
{
    return wf.state == WfState::Ready &&
           wf.wg->state == WgState::Running;
}

bool
ComputeUnit::anyIssuable() const
{
    for (const auto &simd : simdWfs) {
        for (const Wavefront *wf : simd) {
            if (issuable(*wf))
                return true;
        }
    }
    return false;
}

void
ComputeUnit::tick()
{
    bool issued = false;

    for (unsigned s = 0; s < config.simdsPerCu; ++s) {
        // Snapshot: executeInstr may complete a WG and mutate lists.
        auto &simd = simdWfs[s];
        if (simd.empty())
            continue;
        unsigned n = simd.size();
        if (oracle) {
            // Enumerate the issuable wavefronts in round-robin scan
            // order so preferred index 0 is the stock pick; the
            // oracle may issue any of them (SIMT arbitration order
            // is unspecified).
            std::vector<unsigned> cands;
            for (unsigned k = 0; k < n; ++k) {
                unsigned idx = (rrIndex[s] + k) % n;
                if (issuable(*simd[idx]))
                    cands.push_back(idx);
            }
            if (cands.empty())
                continue;
            unsigned pick = 0;
            if (cands.size() > 1) {
                std::vector<int> actors;
                actors.reserve(cands.size());
                for (unsigned c : cands)
                    actors.push_back(simd[c]->wg->id);
                pick = oracle->chooseWithActors(
                    sim::ChoicePoint::WavefrontIssue,
                    static_cast<unsigned>(cands.size()), 0,
                    actors.data());
            }
            unsigned idx = cands[pick];
            rrIndex[s] = (idx + 1) % n;
            executeInstr(*simd[idx]);
            issued = true;
            continue;
        }
        for (unsigned k = 0; k < n; ++k) {
            unsigned idx = (rrIndex[s] + k) % n;
            Wavefront *wf = simd[idx];
            if (!issuable(*wf))
                continue;
            rrIndex[s] = (idx + 1) % n;
            executeInstr(*wf);
            issued = true;
            break;
        }
    }

    if (issued)
        ++activeCycles;
    notifyReady();
}

void
ComputeUnit::doBarrier(Wavefront &wf)
{
    WorkGroup *wg = wf.wg;
    ++numBarriers;
    ++wf.pc;
    wf.state = WfState::WaitBarrier;
    ++wg->barrierArrived;

    unsigned alive = wg->wavefronts.size() - wg->doneWfs;
    if (wg->barrierArrived >= alive) {
        wg->barrierArrived = 0;
        for (auto &other : wg->wavefronts) {
            if (other->state == WfState::WaitBarrier) {
                other->state = WfState::Ready;
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
        wf.state = WfState::Busy;
        scheduleWake(wf, config.ldsLatency);
        return;
      case Opcode::StLds:
        wf.wg->ldsWrite(wf.reg(in.src0) + in.imm, wf.reg(in.src1));
        ++wf.pc;
        wf.state = WfState::Busy;
        scheduleWake(wf, config.ldsLatency);
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
        wf.state = WfState::Sleeping;
        wf.wg->beginWait(curTick(), /*spin=*/true);
        scheduleWake(wf, static_cast<sim::Cycles>(cycles));
        return;
      }
      case Opcode::Valu:
        ++wf.pc;
        wf.state = WfState::Busy;
        scheduleWake(wf, static_cast<sim::Cycles>(in.imm));
        return;
      case Opcode::Bar:
        doBarrier(wf);
        return;
      case Opcode::Halt: {
        wf.state = WfState::Done;
        WorkGroup *wg = wf.wg;
        ++wg->doneWfs;
        // Late arrivals at a barrier must not wait for done WFs.
        if (wg->barrierArrived > 0 &&
            wg->barrierArrived >= wg->wavefronts.size() - wg->doneWfs) {
            wg->barrierArrived = 0;
            for (auto &other : wg->wavefronts) {
                if (other->state == WfState::WaitBarrier) {
                    other->state = WfState::Ready;
                    ++other->waitEpoch;
                }
            }
        }
        if (wg->complete()) {
            wg->completeTick = curTick();
            // Defer so the listener can safely mutate CU state.
            eventq().schedule(curTick(), [this, wg] {
                if (listener)
                    listener->wgCompleted(wg);
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

    wf.state = WfState::WaitMem;
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
    ifp_assert(wf.state == WfState::WaitMem,
               "memory response for wg%d wf%u in state %d", wf.wg->id,
               wf.idInWg, static_cast<int>(wf.state));
    ifp_assert(wf.wg->memWaitWfs > 0, "wg%d memWait underflow",
               wf.wg->id);
    --wf.wg->memWaitWfs;

    switch (req.op) {
      case mem::MemOp::Read: {
        const isa::Instr &in = wf.wg->kernel->code[wf.pc];
        wf.setReg(in.dst, store.read(req.addr, 8));
        ++wf.pc;
        wf.state = WfState::Ready;
        break;
      }
      case mem::MemOp::Write:
        ++wf.pc;
        wf.state = WfState::Ready;
        break;
      case mem::MemOp::Atomic: {
        if (!req.waitFailed) {
            const isa::Instr &in = wf.wg->kernel->code[wf.pc];
            wf.setReg(in.dst, req.result);
            ++wf.pc;
            wf.state = WfState::Ready;
        } else {
            // Keep pc at the waiting atomic: Mesa semantics, the
            // instruction re-executes when the WG resumes.
            wf.state = WfState::Ready;
            applyWaitDecision(wf, req.addr, waitExpectedOf(req),
                              req.decision);
        }
        break;
      }
      case mem::MemOp::ArmWait:
        // pc already advanced at issue.
        wf.state = WfState::Ready;
        applyWaitDecision(wf, req.addr, req.expected, req.decision);
        break;
    }

    wf.wg->refreshRunBucket(curTick());
    if (wf.state == WfState::Ready)
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
        wf.state = WfState::Ready;
        return;
      case mem::WaitKind::Stall: {
        ++numStalls;
        wf.state = WfState::WaitSync;
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
        wf.state = WfState::WaitSync;
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
            if (listener)
                listener->wgWantsSwitch(wg, rescue);
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
        if (wfp->state != WfState::Busy &&
            wfp->state != WfState::Sleeping) {
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
            wfp->state != WfState::WaitSync) {
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
                if (listener)
                    listener->wgWantsSwitch(wg, rescue);
            }, "cu.switchReq");
            return;
          }
        }
    }, "cu.rescue");
}

} // namespace ifp::gpu
