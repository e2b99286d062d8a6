#include "gpu/dispatcher.hh"

#include "sim/logging.hh"

namespace ifp::gpu {

const char *
contextStateName(ContextState state)
{
    switch (state) {
      case ContextState::Created: return "created";
      case ContextState::Queued: return "queued";
      case ContextState::Resident: return "resident";
      case ContextState::Complete: return "complete";
    }
    return "?";
}

Dispatcher::Dispatcher(std::string name, sim::EventQueue &eq,
                       const GpuConfig &cfg)
    : Clocked(std::move(name), eq, cfg.clockPeriod),
      config(cfg),
      statGroup(this->name()),
      dispatches(statGroup.addScalar("dispatches",
                                     "fresh WG dispatches")),
      swapOuts(statGroup.addScalar("swapOuts",
                                   "WG context switches out")),
      swapIns(statGroup.addScalar("swapIns",
                                  "WG context switches in")),
      resumesStalled(statGroup.addScalar(
          "resumesStalled", "condition-met resumes of stalled WGs")),
      resumesSwapped(statGroup.addScalar(
          "resumesSwapped",
          "condition-met resumes of switched-out WGs")),
      forcedPreemptions(statGroup.addScalar(
          "forcedPreemptions", "WGs pre-empted by kernel scheduling")),
      contextsAdmitted(statGroup.addScalar(
          "contextsAdmitted", "dispatch contexts made resident")),
      cuReassignments(statGroup.addScalar(
          "cuReassignments", "CU ownership changes")),
      wgCycles(statGroup.addVector(
          "wgCycles", sim::numStallReasons,
          "WG lifetime cycles by stall reason"))
{
}

void
Dispatcher::setCus(std::vector<ComputeUnit *> cu_list)
{
    cus = std::move(cu_list);
    cuOwner.assign(cus.size(), -1);
    for (ComputeUnit *cu : cus)
        cu->setListener(this);
}

int
Dispatcher::createContext(const isa::Kernel &k,
                          const LaunchOptions &opts,
                          sim::Tick enqueue_tick)
{
    ifp_assert(k.numWgs > 0, "kernel with zero work-groups");
    int ctx_id = static_cast<int>(contexts.size());
    contexts.push_back(std::make_unique<DispatchContext>(
        ctx_id, k, opts, enqueue_tick));
    DispatchContext &ctx = *contexts.back();
    ctx.firstWg = static_cast<int>(wgs.size());
    ctx.numWgs = ctx.kernel.numWgs;
    wgs.reserve(wgs.size() + ctx.numWgs);
    for (unsigned i = 0; i < ctx.numWgs; ++i) {
        int wg_id = ctx.firstWg + static_cast<int>(i);
        // WGs point into the context's own kernel copy: serving
        // enqueues outlive the caller's kernel object. The ABI wg id
        // is the context-local index — kernels address their buffers
        // with it and must not see the global id.
        wgs.push_back(std::make_unique<WorkGroup>(
            wg_id, ctx.kernel, enqueue_tick, static_cast<int>(i)));
        wgs.back()->ctxId = ctx_id;
        ctx.pendingFresh.push_back(wg_id);
    }
    return ctx_id;
}

void
Dispatcher::contextArrived(int ctx_id)
{
    DispatchContext &ctx = *context(ctx_id);
    ifp_assert(ctx.state == ContextState::Created,
               "ctx%d arrived in state %s", ctx_id,
               contextStateName(ctx.state));
    ctx.state = ContextState::Queued;
    sim::emitTrace(trace, curTick(),
                   sim::TraceEventKind::KernelEnqueued, -1, -1,
                   sim::StallReason::Running, 0, ctx_id);
    if (ctx.opts.listener)
        ctx.opts.listener->kernelEnqueued(ctx);
    if (listener)
        listener->kernelEnqueued(ctx);

    if (admission) {
        admission->contextEnqueued(ctx_id);
        return;
    }
    // Standalone fallback (no admission scheduler installed): admit
    // immediately and take every unowned CU.
    admitContext(ctx_id);
    std::vector<int> owner = cuOwner;
    for (int &o : owner) {
        if (o < 0)
            o = ctx_id;
    }
    setCuAssignment(owner);
}

void
Dispatcher::admitContext(int ctx_id)
{
    DispatchContext &ctx = *context(ctx_id);
    ifp_assert(ctx.state == ContextState::Queued,
               "ctx%d admitted in state %s", ctx_id,
               contextStateName(ctx.state));
    ctx.state = ContextState::Resident;
    ctx.admitTick = curTick();
    residentOrder.push_back(ctx_id);
    ++contextsAdmitted;
    sim::emitTrace(trace, curTick(),
                   sim::TraceEventKind::KernelAdmitted, -1, -1,
                   sim::StallReason::Running, 0, ctx_id);
    if (ctx.opts.listener)
        ctx.opts.listener->kernelAdmitted(ctx);
    if (listener)
        listener->kernelAdmitted(ctx);
}

void
Dispatcher::launch(const isa::Kernel &k)
{
    ifp_assert(contexts.empty(),
               "launch() supports one kernel; use createContext()/"
               "contextArrived() for multi-kernel runs");
    int ctx_id = createContext(k, LaunchOptions{}, curTick());
    contextArrived(ctx_id);
}

WorkGroup *
Dispatcher::wg(int wg_id)
{
    ifp_assert(wg_id >= 0 &&
               static_cast<std::size_t>(wg_id) < wgs.size(),
               "bad wg id %d", wg_id);
    return wgs[wg_id].get();
}

DispatchContext *
Dispatcher::context(int ctx_id)
{
    ifp_assert(ctx_id >= 0 &&
               static_cast<std::size_t>(ctx_id) < contexts.size(),
               "bad ctx id %d", ctx_id);
    return contexts[ctx_id].get();
}

const DispatchContext *
Dispatcher::context(int ctx_id) const
{
    ifp_assert(ctx_id >= 0 &&
               static_cast<std::size_t>(ctx_id) < contexts.size(),
               "bad ctx id %d", ctx_id);
    return contexts[ctx_id].get();
}

DispatchContext &
Dispatcher::ctxOf(const WorkGroup *w)
{
    return *contexts[w->ctxId];
}

bool
Dispatcher::cuHostsContext(unsigned cu_id, int ctx_id) const
{
    const DispatchContext &ctx = *contexts[ctx_id];
    for (unsigned i = 0; i < ctx.numWgs; ++i) {
        const WorkGroup *w = wgs[ctx.firstWg + static_cast<int>(i)].get();
        if (w->cuId == static_cast<int>(cu_id))
            return true;
    }
    return false;
}

bool
Dispatcher::hasStarvedWork() const
{
    for (int ctx_id : residentOrder) {
        const DispatchContext &ctx = *contexts[ctx_id];
        if (!ctx.pendingFresh.empty() || !ctx.readySwapIn.empty())
            return true;
    }
    return false;
}

unsigned
Dispatcher::numWaitingWgs() const
{
    unsigned n = 0;
    for (const auto &w : wgs) {
        if (w->hasWaitCond && w->state != WgState::Done)
            ++n;
    }
    return n;
}

unsigned
Dispatcher::numOnlineCus() const
{
    unsigned n = 0;
    for (const ComputeUnit *cu : cus) {
        if (!cu->offline())
            ++n;
    }
    return n;
}

ComputeUnit *
Dispatcher::findHost(const DispatchContext &ctx, bool consult_oracle)
{
    ComputeUnit *best = nullptr;
    std::size_t best_pos = 0;
    std::vector<ComputeUnit *> capable;
    for (std::size_t i = 0; i < cus.size(); ++i) {
        if (cuOwner[i] != ctx.id)
            continue;
        ComputeUnit *cu = cus[i];
        if (!cu->canHost(ctx.kernel))
            continue;
        if (oracle && consult_oracle)
            capable.push_back(cu);
        if (!best || cu->numResidentWgs() < best->numResidentWgs()) {
            best = cu;
            best_pos = capable.empty() ? 0 : capable.size() - 1;
        }
    }
    if (oracle && consult_oracle && capable.size() > 1) {
        unsigned pick =
            oracle->choose(sim::ChoicePoint::HostCu,
                           static_cast<unsigned>(capable.size()),
                           static_cast<unsigned>(best_pos));
        return capable[pick];
    }
    return best;
}

void
Dispatcher::tryDispatch()
{
    if (oracle) {
        oracleDispatch();
        return;
    }
    bool progress = true;
    while (progress) {
        progress = false;
        for (int ctx_id : residentOrder) {
            DispatchContext &ctx = *contexts[ctx_id];
            if (swapInCapable && !ctx.readySwapIn.empty()) {
                WorkGroup *w = wg(ctx.readySwapIn.front());
                if (ComputeUnit *cu = findHost(ctx)) {
                    ctx.readySwapIn.pop_front();
                    startSwapIn(w, cu);
                    progress = true;
                    break;
                }
            }
            if (!ctx.pendingFresh.empty()) {
                WorkGroup *w = wg(ctx.pendingFresh.front());
                if (ComputeUnit *cu = findHost(ctx)) {
                    ctx.pendingFresh.pop_front();
                    startFresh(w, cu);
                    progress = true;
                    break;
                }
            }
        }
    }
}

void
Dispatcher::oracleDispatch()
{
    // Rebuilt after every placement: placing a WG changes hostability
    // for everyone. Candidates are enumerated in the stock scan order
    // (residentOrder, swap-ins before fresh, queue order within) so
    // preferred index 0 is exactly the WG tryDispatch() would place.
    // Unlike the stock path, any queued WG — not just the queue
    // fronts — is a legal pick: dispatch order within a kernel is
    // unspecified by the programming model, which is precisely what
    // occupancy litmus tests probe.
    for (;;) {
        struct Cand
        {
            DispatchContext *ctx;
            std::size_t pos;
            bool swapIn;
        };
        std::vector<Cand> cands;
        for (int ctx_id : residentOrder) {
            DispatchContext &ctx = *contexts[ctx_id];
            if (!findHost(ctx, /*consult_oracle=*/false))
                continue;
            if (swapInCapable) {
                for (std::size_t i = 0; i < ctx.readySwapIn.size();
                     ++i)
                    cands.push_back(Cand{&ctx, i, true});
            }
            for (std::size_t i = 0; i < ctx.pendingFresh.size(); ++i)
                cands.push_back(Cand{&ctx, i, false});
        }
        if (cands.empty())
            return;
        unsigned pick = 0;
        if (cands.size() > 1) {
            std::vector<int> actors;
            actors.reserve(cands.size());
            for (const Cand &cand : cands) {
                int stored = cand.swapIn
                                 ? cand.ctx->readySwapIn[cand.pos]
                                 : cand.ctx->pendingFresh[cand.pos];
                actors.push_back(wg(stored)->id);
            }
            pick = oracle->chooseWithActors(
                sim::ChoicePoint::DispatchPick,
                static_cast<unsigned>(cands.size()), 0, actors.data());
        }
        const Cand &c = cands[pick];
        ComputeUnit *cu = findHost(*c.ctx);
        ifp_assert(cu, "oracle dispatch lost its host CU");
        if (c.swapIn) {
            WorkGroup *w = wg(c.ctx->readySwapIn[c.pos]);
            c.ctx->readySwapIn.erase(c.ctx->readySwapIn.begin() +
                                     static_cast<std::ptrdiff_t>(c.pos));
            startSwapIn(w, cu);
        } else {
            WorkGroup *w = wg(c.ctx->pendingFresh[c.pos]);
            c.ctx->pendingFresh.erase(c.ctx->pendingFresh.begin() +
                                      static_cast<std::ptrdiff_t>(c.pos));
            startFresh(w, cu);
        }
    }
}

void
Dispatcher::startFresh(WorkGroup *w, ComputeUnit *cu)
{
    ifp_assert(w->state == WgState::Pending,
               "fresh dispatch of wg%d in state %s", w->id,
               wgStateName(w->state));
    ++dispatches;
    DispatchContext &ctx = ctxOf(w);
    ++ctx.dispatches;
    if (curTick() < ctx.firstDispatchTick)
        ctx.firstDispatchTick = curTick();
    cu->placeWg(w);
    w->setState(WgState::Dispatching, curTick());
    w->dispatchTick = curTick();
    sim::emitTrace(trace, curTick(),
                   sim::TraceEventKind::WgDispatched, w->id,
                   static_cast<int>(cu->cuId()));
    // The epoch guard lets offlineCu() cancel this activation if the
    // CU churns away during the launch latency.
    std::uint64_t epoch = w->dispatchEpoch;
    eventq().schedule(clockEdge(config.dispatchLatency),
                      [cu, w, epoch] {
        if (w->dispatchEpoch == epoch)
            cu->activateWg(w);
    }, "dispatcher.activate");
}

void
Dispatcher::startSwapIn(WorkGroup *w, ComputeUnit *cu)
{
    ifp_assert(w->state == WgState::ReadySwapIn,
               "swap-in of wg%d in state %s", w->id,
               wgStateName(w->state));
    ifp_assert(switcher, "no context switcher installed");
    ++swapIns;
    ++ctxOf(w).swapIns;

    // Close out recovery accounting: the first swap-in after a CU
    // restoration marks the machine using the returned resources.
    for (sim::Tick restored : pendingRestores)
        recoveries.push_back(CuRecovery{restored, curTick()});
    pendingRestores.clear();

    cu->placeWg(w);
    w->setState(WgState::SwitchingIn, curTick());
    sim::emitTrace(trace, curTick(), sim::TraceEventKind::WgSwapIn,
                   w->id, static_cast<int>(cu->cuId()));
    switcher->restoreContext(w, [this, w, cu] {
        ++w->contextRestores;
        cu->activateWg(w);
        DispatchContext &ctx = ctxOf(w);
        if (ctx.opts.listener) {
            ctx.opts.listener->kernelResumed(
                ctx, w->id, static_cast<int>(cu->cuId()));
        }
        if (listener) {
            listener->kernelResumed(ctx, w->id,
                                    static_cast<int>(cu->cuId()));
        }
        // The CU may have churned offline while the restore DMA was
        // in flight; evict the WG right back out.
        if (cu->offline())
            preemptRunning(w);
    });
}

void
Dispatcher::wgWantsSwitch(WorkGroup *w, sim::Cycles rescue_cycles)
{
    if (w->state != WgState::Running)
        return;  // already switching, or completed meanwhile
    if (!switcher)
        return;  // no CP firmware: WGs can only stall
    if (rescue_cycles > 0)
        switcher->armRescue(w->id, rescue_cycles);
    beginSwapOut(w);
}

void
Dispatcher::beginSwapOut(WorkGroup *w)
{
    ifp_assert(w->cuId >= 0, "swap-out of non-resident wg%d", w->id);
    ++swapOuts;
    ++ctxOf(w).swapOuts;
    sim::emitTrace(trace, curTick(), sim::TraceEventKind::WgSwitchOut,
                   w->id, w->cuId);
    w->setState(WgState::SwitchingOut, curTick());
    ComputeUnit *cu = cus[w->cuId];
    cu->beginDrain(w, [this, w] {
        switcher->saveContext(w, [this, w] { finishSwapOut(w); });
    });
}

void
Dispatcher::finishSwapOut(WorkGroup *w)
{
    ifp_assert(w->state == WgState::SwitchingOut,
               "finishSwapOut of wg%d in state %s", w->id,
               wgStateName(w->state));
    ComputeUnit *cu = cus[w->cuId];
    cu->removeWg(w);
    ++w->contextSaves;

    if (w->resumePending || !w->hasWaitCond) {
        w->setState(WgState::ReadySwapIn, curTick());
        sim::emitTrace(trace, curTick(),
                       sim::TraceEventKind::WgSwitchedOut, w->id, -1,
                       sim::StallReason::DispatchQueue);
        w->resumePending = false;
        ctxOf(w).readySwapIn.push_back(w->id);
    } else {
        w->setState(WgState::SwappedOut, curTick());
        sim::emitTrace(trace, curTick(),
                       sim::TraceEventKind::WgSwitchedOut, w->id, -1,
                       sim::StallReason::Waiting, w->waitAddr,
                       static_cast<std::int64_t>(w->waitExpected));
        // Make sure a CP rescue exists: a forcibly pre-empted waiting
        // WG never passed through a waiting-policy Switch decision,
        // and a missed monitor notification must not strand it.
        if (switcher && defaultRescueCycles > 0)
            switcher->armRescue(w->id, defaultRescueCycles);
    }
    tryDispatch();
}

void
Dispatcher::resumeWg(int wg_id)
{
    WorkGroup *w = wg(wg_id);
    switch (w->state) {
      case WgState::Running: {
        ++resumesStalled;
        if (switcher)
            switcher->cancelRescue(wg_id);
        sim::emitTrace(trace, curTick(),
                       sim::TraceEventKind::WgResumed, wg_id, w->cuId);
        cus[w->cuId]->resumeWaitingWfs(w);
        return;
      }
      case WgState::SwitchingOut:
        w->resumePending = true;
        return;
      case WgState::SwappedOut: {
        ++resumesSwapped;
        if (switcher)
            switcher->cancelRescue(wg_id);
        w->setState(WgState::ReadySwapIn, curTick());
        sim::emitTrace(trace, curTick(),
                       sim::TraceEventKind::WgResumed, wg_id, -1);
        w->hasWaitCond = false;
        ctxOf(w).readySwapIn.push_back(wg_id);
        tryDispatch();
        return;
      }
      case WgState::Pending:
      case WgState::Dispatching:
      case WgState::ReadySwapIn:
      case WgState::SwitchingIn:
      case WgState::Done:
        return;  // nothing to do / already on its way
    }
}

void
Dispatcher::contextCompleted(DispatchContext &ctx)
{
    ctx.state = ContextState::Complete;
    ctx.completeTick = curTick();
    ++completedContexts;
    for (std::size_t i = 0; i < residentOrder.size(); ++i) {
        if (residentOrder[i] == ctx.id) {
            residentOrder.erase(residentOrder.begin() +
                                static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
    sim::emitTrace(trace, curTick(),
                   sim::TraceEventKind::KernelCompleted, -1, -1,
                   sim::StallReason::Running, 0, ctx.id);
    if (ctx.opts.listener)
        ctx.opts.listener->kernelCompleted(ctx);
    if (listener)
        listener->kernelCompleted(ctx);

    if (admission) {
        // Reclaims the context's CUs and admits queued work.
        admission->contextCompleted(ctx.id);
    } else {
        std::vector<int> owner = cuOwner;
        for (int &o : owner) {
            if (o == ctx.id)
                o = -1;
        }
        setCuAssignment(owner);
    }
}

void
Dispatcher::wgCompleted(WorkGroup *w)
{
    ifp_assert(w->state == WgState::Running ||
               w->state == WgState::SwitchingOut,
               "completion of wg%d in state %s", w->id,
               wgStateName(w->state));
    ComputeUnit *cu = cus[w->cuId];
    sim::emitTrace(trace, curTick(), sim::TraceEventKind::WgCompleted,
                   w->id, w->cuId);
    cu->removeWg(w);
    w->setState(WgState::Done, curTick());
    if (switcher)
        switcher->cancelRescue(w->id);
    ++completed;
    DispatchContext &ctx = ctxOf(w);
    ++ctx.completed;
    if (ctx.complete()) {
        contextCompleted(ctx);
    } else {
        tryDispatch();
    }
}

void
Dispatcher::onlineCu(unsigned cu_id)
{
    ifp_assert(cu_id < cus.size(), "bad CU id %u", cu_id);
    if (!cus[cu_id]->offline())
        return;  // idempotent under overlapping fault windows
    cus[cu_id]->setOffline(false);
    pendingRestores.push_back(curTick());
    sim::emitTrace(trace, curTick(), sim::TraceEventKind::CuOnline, -1,
                   static_cast<int>(cu_id));
    tryDispatch();
    if (admission)
        admission->cuAvailabilityChanged();
}

void
Dispatcher::notifyPreempted(WorkGroup *w, int cu_id)
{
    DispatchContext &ctx = ctxOf(w);
    ++ctx.preemptions;
    sim::emitTrace(trace, curTick(),
                   sim::TraceEventKind::KernelPreempted, w->id, cu_id,
                   sim::StallReason::Running, 0, ctx.id);
    if (ctx.opts.listener)
        ctx.opts.listener->kernelPreempted(ctx, w->id, cu_id);
    if (listener)
        listener->kernelPreempted(ctx, w->id, cu_id);
}

void
Dispatcher::preemptRunning(WorkGroup *w)
{
    ++forcedPreemptions;
    notifyPreempted(w, w->cuId);
    sim::emitTrace(trace, curTick(), sim::TraceEventKind::WgPreempted,
                   w->id, w->cuId);
    w->setState(WgState::SwitchingOut, curTick());
    ComputeUnit *host = cus[w->cuId];
    host->beginDrain(w, [this, w] {
        if (switcher) {
            switcher->saveContext(w, [this, w] { finishSwapOut(w); });
        } else {
            finishSwapOut(w);
        }
    });
}

int
Dispatcher::requeueDispatching(WorkGroup *w, unsigned cu_id)
{
    // Caught inside the launch latency: cancel the pending
    // activation (epoch guard) and put the WG back in the fresh
    // queue — it never ran, so there is no context to save.
    ++w->dispatchEpoch;
    ++forcedPreemptions;
    notifyPreempted(w, static_cast<int>(cu_id));
    sim::emitTrace(trace, curTick(),
                   sim::TraceEventKind::WgPreempted, w->id,
                   static_cast<int>(cu_id));
    cus[cu_id]->removeWg(w);
    w->setState(WgState::Pending, curTick());
    return w->id;
}

void
Dispatcher::offlineCu(unsigned cu_id)
{
    ifp_assert(cu_id < cus.size(), "bad CU id %u", cu_id);
    ComputeUnit *cu = cus[cu_id];
    if (cu->offline())
        return;  // idempotent under overlapping fault windows
    cu->setOffline(true);
    sim::emitTrace(trace, curTick(), sim::TraceEventKind::CuOffline,
                   -1, static_cast<int>(cu_id));

    // Snapshot: beginSwapOut mutates the resident list asynchronously.
    std::vector<WorkGroup *> victims = cu->residentWgs();
    std::vector<int> requeued;
    for (WorkGroup *w : victims) {
        if (w->state == WgState::Dispatching) {
            requeued.push_back(requeueDispatching(w, cu_id));
            continue;
        }
        if (w->state != WgState::Running)
            continue;  // already switching out or restoring
        preemptRunning(w);
    }
    if (!requeued.empty()) {
        // Front of the queue, original order: they were dispatched
        // first, so they go back out first. All victims of one CU
        // belong to its owning context.
        std::deque<int> &queue = ctxOf(wg(requeued.front())).pendingFresh;
        queue.insert(queue.begin(), requeued.begin(), requeued.end());
        tryDispatch();
    }
    if (admission)
        admission->cuAvailabilityChanged();
}

void
Dispatcher::setCuAssignment(const std::vector<int> &owner)
{
    ifp_assert(owner.size() == cus.size(),
               "CU assignment size %zu != %zu CUs", owner.size(),
               cus.size());
    // Per-context requeue batches, front-inserted in original order.
    std::vector<std::vector<int>> requeued(contexts.size());
    bool changed = false;
    for (std::size_t i = 0; i < cus.size(); ++i) {
        int next = owner[i];
        int prev = cuOwner[i];
        if (next == prev)
            continue;
        ifp_assert(next < static_cast<int>(contexts.size()),
                   "CU %zu assigned to unknown ctx %d", i, next);
        changed = true;
        ++cuReassignments;
        if (prev >= 0)
            ++contexts[prev]->cusLost;
        if (next >= 0)
            ++contexts[next]->cusGained;

        // Revocation pre-empts the previous owner's WGs through the
        // same drain/save machinery the offline-CU scenario uses.
        std::vector<WorkGroup *> victims = cus[i]->residentWgs();
        for (WorkGroup *w : victims) {
            if (w->ctxId == next)
                continue;
            if (w->state == WgState::Dispatching) {
                requeued[w->ctxId].push_back(
                    requeueDispatching(w, static_cast<unsigned>(i)));
                continue;
            }
            if (w->state != WgState::Running)
                continue;  // already switching out or restoring
            preemptRunning(w);
        }
        cuOwner[i] = next;
    }
    for (std::size_t c = 0; c < requeued.size(); ++c) {
        if (requeued[c].empty())
            continue;
        std::deque<int> &queue = contexts[c]->pendingFresh;
        queue.insert(queue.begin(), requeued[c].begin(),
                     requeued[c].end());
    }
    if (changed)
        tryDispatch();
}

void
Dispatcher::accumulateWgCycleStats(sim::Tick end_tick)
{
    double period = static_cast<double>(clockPeriod());
    for (auto &w : wgs) {
        // Completed WGs closed their books at completeTick; anything
        // still alive (deadlocked / stranded) is charged to end_tick.
        w->closeAccounting(end_tick);
        for (std::size_t r = 0; r < sim::numStallReasons; ++r)
            wgCycles[r] += static_cast<double>(w->reasonTicks[r]) /
                           period;
    }
}

} // namespace ifp::gpu
