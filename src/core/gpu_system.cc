#include "core/gpu_system.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "analysis/lint.hh"
#include "sim/logging.hh"

namespace ifp::core {

const char *
policyName(Policy policy)
{
    switch (policy) {
      case Policy::Baseline: return "Baseline";
      case Policy::Sleep: return "Sleep";
      case Policy::Timeout: return "Timeout";
      case Policy::MonRSAll: return "MonRS-All";
      case Policy::MonRAll: return "MonR-All";
      case Policy::MonNRAll: return "MonNR-All";
      case Policy::MonNROne: return "MonNR-One";
      case Policy::Awg: return "AWG";
      case Policy::MinResume: return "MinResume";
    }
    return "?";
}

std::string
RunResult::statusString() const
{
    if (deadlocked)
        return "DEADLOCK";
    if (!completed)
        return "TIMEOUT";
    return std::to_string(gpuCycles);
}

std::string
RunResult::verdictString() const
{
    if (verdict == Verdict::Complete)
        return std::string(verdictName(verdict)) + "(" +
               std::to_string(gpuCycles) + ")";
    return verdictName(verdict);
}

GpuSystem::GpuSystem(const RunConfig &run_cfg)
    : cfg(run_cfg)
{
    if (cfg.gpu.numCus == 0)
        throw std::invalid_argument(
            "GpuConfig::numCus is 0; it must be positive");
    if (cfg.policy.timeoutIntervalCycles == 0)
        throw std::invalid_argument(
            "PolicyConfig::timeoutIntervalCycles is 0; it must be "
            "positive");
    if (cfg.policy.sleepMaxBackoffCycles == 0 ||
        cfg.policy.sleepMaxBackoffCycles >
            static_cast<sim::Cycles>(
                std::numeric_limits<std::int64_t>::max())) {
        throw std::invalid_argument(
            "PolicyConfig::sleepMaxBackoffCycles is " +
            std::to_string(cfg.policy.sleepMaxBackoffCycles) +
            "; it must be in 1.." +
            std::to_string(std::numeric_limits<std::int64_t>::max()));
    }
    if (!std::has_single_bit(cfg.policy.syncmon.sets)) {
        throw std::invalid_argument(
            "SyncMonConfig::sets is " +
            std::to_string(cfg.policy.syncmon.sets) +
            "; it must be a power of two");
    }

    int num_cus = static_cast<int>(cfg.gpu.numCus);
    for (const FaultEvent &ev : cfg.faultPlan.events) {
        if (ev.kind != FaultKind::CuOffline &&
            ev.kind != FaultKind::CuOnline)
            continue;
        if (ev.cuId < -1 || ev.cuId >= num_cus) {
            throw std::invalid_argument(
                "fault plan '" + cfg.faultPlan.name + "': " +
                faultKindName(ev.kind) + " targets CU " +
                std::to_string(ev.cuId) + " on a " +
                std::to_string(num_cus) + "-CU machine");
        }
    }

    dram = std::make_unique<mem::Dram>("dram", eq);
    l2cache = std::make_unique<mem::L2Cache>("l2", eq, cfg.gpu.l2,
                                             *dram, store, pool);
    dma = std::make_unique<mem::DmaEngine>("dma", eq);
    cp = std::make_unique<cp::CommandProcessor>("cp", eq, cfg.cp, *dma,
                                                store, l2cache.get(),
                                                &pool);
    dispatch = std::make_unique<gpu::Dispatcher>(
        "dispatcher", eq, *cp, cp->admissionScheduler());

    for (unsigned i = 0; i < cfg.gpu.numCus; ++i) {
        std::string cu_name = "cu" + std::to_string(i);
        l1s.push_back(std::make_unique<mem::L1Cache>(
            cu_name + ".l1", eq, *l2cache, pool));
        cus.push_back(std::make_unique<gpu::ComputeUnit>(
            cu_name, eq, i, *l1s.back(), store, pool, *dispatch));
    }

    std::vector<gpu::ComputeUnit *> cu_ptrs;
    for (auto &cu : cus)
        cu_ptrs.push_back(cu.get());
    for (auto &cu : cus)
        cu->setPeers(cu_ptrs);
    dispatch->setCus(std::move(cu_ptrs));
    cp->setScheduler(dispatch.get());
    cp->admissionScheduler().setDispatcher(dispatch.get());

    Policy policy = cfg.policy.policy;
    dispatch->setSwapInCapable(!deadlockProne(policy));
    if (policy == Policy::Timeout) {
        dispatch->setDefaultRescueCycles(
            cfg.policy.timeoutIntervalCycles);
    } else if (usesSyncMon(policy)) {
        dispatch->setDefaultRescueCycles(
            cfg.policy.syncmon.rescueIntervalCycles);
    }

    mem::SyncObserver *observer = nullptr;
    if (usesSyncMon(policy)) {
        monitor = std::make_unique<syncmon::SyncMonController>(
            "syncmon", eq, syncMonModeFor(policy), cfg.policy.syncmon,
            *l2cache, store, *cp);
        monitor->setScheduler(dispatch.get());
        cp->setSpillObserver(monitor.get());
        observer = monitor.get();
    } else if (policy == Policy::Timeout) {
        timeout = std::make_unique<syncmon::TimeoutController>(
            cfg.policy.timeoutIntervalCycles);
        timeout->setScheduler(dispatch.get());
        l2cache->setSyncObserver(timeout.get());
        observer = timeout.get();
    }
    // Baseline / Sleep: no controller; waiting atomics would busy
    // retry, but their codegen styles never emit them.

    for (auto &cu : cus)
        cu->setSyncObserver(observer);

    if (cfg.traceEnabled) {
        sink = std::make_unique<sim::TraceSink>();
        dispatch->setTraceSink(sink.get());
        cp->setTraceSink(sink.get());
        for (auto &cu : cus)
            cu->setTraceSink(sink.get());
        if (monitor)
            monitor->setTraceSink(sink.get());
    }

    if (cfg.schedOracle) {
        dispatch->setSchedOracle(cfg.schedOracle);
        cp->setSchedOracle(cfg.schedOracle);
        for (auto &cu : cus)
            cu->setSchedOracle(cfg.schedOracle);
        if (monitor)
            monitor->setSchedOracle(cfg.schedOracle);
    }
}

GpuSystem::~GpuSystem()
{
    eq.clear();  // CU ticks may be queued, and the CUs die first
}

mem::Addr
GpuSystem::allocate(std::uint64_t bytes, std::uint64_t align)
{
    ifp_assert(align > 0 && (align & (align - 1)) == 0,
               "alignment must be a power of two");
    heapNext = (heapNext + align - 1) & ~(align - 1);
    mem::Addr base = heapNext;
    heapNext += bytes;
    return base;
}

void
GpuSystem::checkKernel(const isa::Kernel &kernel) const
{
    if (analysis::wgsPerCu(kernel) == 0) {
        throw std::invalid_argument(
            "kernel '" + kernel.name + "' fits no CU: a WG needs " +
            std::to_string(kernel.wavefrontsPerWg()) +
            " wavefronts and " + std::to_string(kernel.ldsBytes) +
            " LDS bytes, with maxWgsPerCu " +
            std::to_string(kernel.maxWgsPerCu) + "; a CU holds " +
            std::to_string(gpu::simdsPerCu * gpu::wavefrontsPerSimd) +
            " wavefronts and " + std::to_string(gpu::ldsBytesPerCu) +
            " LDS bytes");
    }
    if (cfg.dispatch.lintBeforeDispatch) {
        analysis::LaunchContext launch =
            analysis::makeLaunchContext(kernel, cfg.gpu.numCus);
        analysis::Report report = analysis::runLint(kernel, launch);
        if (!report.diagnostics.empty()) {
            std::ostringstream os;
            analysis::printReport(report, os);
            sim::warnImpl("pre-dispatch lint of kernel '%s':\n%s",
                          kernel.name.c_str(), os.str().c_str());
        }
        if (!report.clean(cfg.dispatch.lintWerror)) {
            throw std::invalid_argument(
                "kernel '" + kernel.name +
                "' failed pre-dispatch lint (see warnings above)");
        }
    }
}

int
GpuSystem::enqueueKernel(const isa::Kernel &kernel,
                         const gpu::LaunchOptions &opts)
{
    checkKernel(kernel);
    int ctx_id = dispatch->createContext(kernel, opts, eq.curTick());
    dispatch->contextArrived(ctx_id);
    return ctx_id;
}

int
GpuSystem::enqueueKernelAt(const isa::Kernel &kernel,
                           const gpu::LaunchOptions &opts, sim::Tick at)
{
    ifp_assert(at >= eq.curTick(),
               "kernel arrival scheduled in the past");
    checkKernel(kernel);
    int ctx_id = dispatch->createContext(kernel, opts, at);
    eq.schedule(at, [this, ctx_id] {
        dispatch->contextArrived(ctx_id);
    }, "kernel.arrival");
    return ctx_id;
}

RunResult
GpuSystem::run(const isa::Kernel &kernel, const Validator &validator)
{
    enqueueKernel(kernel);
    return finishRun(validator);
}

ServeResult
GpuSystem::serve(const Validator &validator)
{
    ServeResult serve_result;
    serve_result.run = finishRun(validator);

    const sim::Tick period = sim::gpuClockPeriod;
    for (const auto &ctx : dispatch->dispatchContexts()) {
        KernelRunStat ks;
        ks.ctxId = ctx->id;
        ks.kernelName = ctx->kernel.name;
        ks.tenant = ctx->opts.tenant;
        ks.priority = ctx->opts.priority;
        ks.completed = ctx->state == gpu::ContextState::Complete;
        ks.enqueueCycle = ctx->enqueueTick / period;
        ks.admitCycle = ctx->admitTick / period;
        if (ctx->firstDispatchTick != sim::maxTick)
            ks.firstDispatchCycle = ctx->firstDispatchTick / period;
        if (ks.completed) {
            ks.completeCycle = ctx->completeTick / period;
            ks.turnaroundCycles =
                (ctx->completeTick - ctx->enqueueTick) / period;
        }
        if (ctx->admitTick >= ctx->enqueueTick &&
            ctx->state != gpu::ContextState::Created &&
            ctx->state != gpu::ContextState::Queued) {
            ks.queueCycles =
                (ctx->admitTick - ctx->enqueueTick) / period;
        }
        if (ctx->opts.deadlineCycles > 0) {
            ks.sloMissed = !ks.completed ||
                           ks.turnaroundCycles > ctx->opts.deadlineCycles;
        }
        ks.dispatches = ctx->dispatches;
        ks.swapOuts = ctx->swapOuts;
        ks.swapIns = ctx->swapIns;
        ks.preemptions = ctx->preemptions;
        ks.cusGained = ctx->cusGained;
        ks.cusLost = ctx->cusLost;
        ks.wgsCompleted = ctx->completed;
        ks.numWgs = ctx->numWgs;
        serve_result.kernels.push_back(std::move(ks));
    }
    return serve_result;
}

RunResult
GpuSystem::finishRun(const Validator &validator)
{
    RunResult result;
    scheduleFaults();

    const sim::Tick window = cfg.deadlockWindowCycles * sim::gpuClockPeriod;
    const sim::Tick budget = cfg.maxCycles * sim::gpuClockPeriod;

    // Arrivals keep serving runs with sparse arrivals from tripping
    // the deadlock detector: a kernel arriving inside a window is
    // progress. Constant (one) in single-kernel runs, so legacy
    // deltas are unchanged.
    auto progress_sig = [this] {
        return store.mutations() + dispatch->numCompleted() +
               static_cast<std::uint64_t>(
                   dispatch->stats().scalar("swapOuts").value()) +
               static_cast<std::uint64_t>(
                   dispatch->stats().scalar("swapIns").value()) +
               dispatch->numArrivedContexts();
    };

    LivenessOracle oracle(cfg.deadlockWindowCycles);

    std::uint64_t last_sig = progress_sig();
    sim::Tick next_check = window;
    while (!dispatch->allContextsComplete()) {
        eq.simulate(next_check);
        if (dispatch->allContextsComplete())
            break;
        // Sample at the window boundary, not curTick(): the queue's
        // clock only advances when events execute, so a fully asleep
        // machine would otherwise freeze the oracle's held-clocks.
        oracle.sample(next_check, waiterProbes(), retryActivity());
        if (eq.empty()) {
            // Nothing can ever happen again: stranded WGs.
            result.deadlocked = true;
            result.verdict = oracle.finalizeStall(true);
            break;
        }
        std::uint64_t sig = progress_sig();
        if (sig == last_sig) {
            result.deadlocked = true;
            result.verdict = oracle.finalizeStall(false);
            break;
        }
        last_sig = sig;
        next_check += window;
        if (next_check > budget) {
            // Simulation budget exhausted: report as non-completion.
            break;
        }
    }

    if (dispatch->allContextsComplete()) {
        result.verdict = Verdict::Complete;
        result.completed = true;
        result.runTicks = dispatch->lastCompletionTick();
    } else {
        if (!result.deadlocked)
            result.verdict = Verdict::Exhausted;
        result.runTicks = eq.curTick();
    }
    result.lostWakeups = oracle.lostWakeups();
    result.gpuCycles = result.runTicks / sim::gpuClockPeriod;

    // Close the stall-reason books (completed WGs already closed at
    // their completeTick; survivors are charged up to the run's end)
    // and publish the per-reason totals as dispatcher stats.
    dispatch->accumulateWgCycleStats(result.runTicks);

    harvest(result);

    if (result.completed && validator) {
        std::string err;
        result.validated = validator(store, err);
        result.validationError = std::move(err);
    }
    return result;
}

unsigned
GpuSystem::resolveCuId(int cu_id) const
{
    return cu_id >= 0 ? static_cast<unsigned>(cu_id)
                      : cfg.gpu.numCus - 1;
}

void
GpuSystem::scheduleFaults()
{
    faultsApplied = 0;
    for (const FaultEvent &ev : cfg.faultPlan.events) {
        sim::Tick at = sim::ticksFromMicroseconds(ev.atUs);
        eq.schedule(at, [this, ev] { applyFault(ev, true); },
                    "fault.begin");
        // CpStall needs no end edge: the CP checks the stall deadline
        // itself. CU churn events are instantaneous by definition.
        if (faultKindWindowed(ev.kind) &&
            ev.kind != FaultKind::CpStall) {
            sim::Tick end =
                sim::ticksFromMicroseconds(ev.atUs + ev.durationUs);
            eq.schedule(end, [this, ev] { applyFault(ev, false); },
                        "fault.end");
        }
    }
}

void
GpuSystem::applyFault(const FaultEvent &ev, bool begin)
{
    if (begin) {
        ++faultsApplied;
        sim::emitTrace(sink.get(), eq.curTick(),
                       sim::TraceEventKind::FaultInjected, -1, ev.cuId,
                       sim::StallReason::Running, ev.param,
                       static_cast<std::int64_t>(ev.kind));
    }
    switch (ev.kind) {
      case FaultKind::CuOffline:
        dispatch->offlineCu(resolveCuId(ev.cuId));
        return;
      case FaultKind::CuOnline:
        dispatch->onlineCu(resolveCuId(ev.cuId));
        return;
      case FaultKind::SyncMonPressure:
        // Monitor faults are no-ops for policies without a SyncMon.
        if (monitor) {
            begin ? monitor->beginCapacityPressure()
                  : monitor->endCapacityPressure();
        }
        return;
      case FaultKind::LogJam:
        begin ? cp->beginLogJam() : cp->endLogJam();
        return;
      case FaultKind::DropResume:
        if (monitor) {
            begin ? monitor->beginResumeDrop()
                  : monitor->endResumeDrop();
        }
        return;
      case FaultKind::DelayResume:
        if (monitor) {
            if (begin)
                monitor->beginResumeDelay(ev.param);
            else
                monitor->endResumeDelay();
        }
        return;
      case FaultKind::CpStall:
        cp->stallFirmware(
            eq.curTick() +
            sim::ticksFromMicroseconds(ev.durationUs));
        return;
    }
}

std::vector<WaiterProbe>
GpuSystem::waiterProbes() const
{
    std::vector<WaiterProbe> probes;
    for (const auto &wg : dispatch->workgroups()) {
        if (wg->state == gpu::WgState::Done || !wg->hasWaitCond)
            continue;
        WaiterProbe probe;
        probe.wgId = wg->id;
        probe.addr = wg->waitAddr;
        probe.expected = wg->waitExpected;
        probe.conditionHolds =
            store.read(wg->waitAddr, 8) == wg->waitExpected;
        probes.push_back(probe);
    }
    return probes;
}

std::uint64_t
GpuSystem::retryActivity() const
{
    // Activity that does not advance the progress signature (failed
    // compares mutate nothing) but proves the machine is executing:
    // waiting-atomic retries, wait re-arms, sleep backoff spins and
    // stall-timeout wakeups. Baseline's plain-atomic busy wait is
    // deliberately absent — a spinning Baseline machine is the
    // paper's deadlock, not a livelock of the added mechanisms.
    std::uint64_t activity = 0;
    for (const auto &cu : cus) {
        const sim::StatGroup &s = cu->stats();
        activity += static_cast<std::uint64_t>(
            s.scalar("waitingAtomics").value());
        activity += static_cast<std::uint64_t>(
            s.scalar("armWaits").value());
        activity += static_cast<std::uint64_t>(
            s.scalar("sleeps").value());
        activity += static_cast<std::uint64_t>(
            s.scalar("stallRescues").value());
    }
    if (monitor) {
        const sim::StatGroup &s = monitor->stats();
        activity += static_cast<std::uint64_t>(
            s.scalar("logFullRetries").value());
        activity += static_cast<std::uint64_t>(
            s.scalar("stallTimeouts").value());
    }
    return activity;
}

void
GpuSystem::harvest(RunResult &result) const
{
    for (const auto &cu : cus) {
        const sim::StatGroup &s = cu->stats();
        result.instructions += static_cast<std::uint64_t>(
            s.scalar("instructions").value());
        result.atomicInstructions += static_cast<std::uint64_t>(
            s.scalar("atomics").value());
        result.waitingAtomics += static_cast<std::uint64_t>(
            s.scalar("waitingAtomics").value());
        result.armWaits += static_cast<std::uint64_t>(
            s.scalar("armWaits").value());
        result.sleeps += static_cast<std::uint64_t>(
            s.scalar("sleeps").value());
    }

    const sim::Tick period = sim::gpuClockPeriod;
    sim::Tick first_done = sim::maxTick, last_done = 0;
    for (const auto &wg : dispatch->workgroups()) {
        if (wg->completeTick > 0) {
            first_done = std::min(first_done, wg->completeTick);
            last_done = std::max(last_done, wg->completeTick);
        }
        sim::Tick end = wg->completeTick > 0 ? wg->completeTick
                                             : result.runTicks;
        sim::Tick exec =
            end > wg->dispatchTick ? end - wg->dispatchTick : 0;
        sim::Tick waiting = wg->waitingTicks;
        if (wg->waitingWfs > 0 && end > wg->waitStartTick)
            waiting += end - wg->waitStartTick;
        result.totalWgExecCycles +=
            static_cast<double>(exec) / period;
        result.totalWgWaitCycles +=
            static_cast<double>(std::min(waiting, exec)) / period;
        result.contextSaves += wg->contextSaves;
        result.contextRestores += wg->contextRestores;
        result.maxWgWaitCycles = std::max(
            result.maxWgWaitCycles,
            static_cast<sim::Cycles>(waiting / period));
    }
    if (last_done > first_done) {
        result.wgCompletionSpreadCycles =
            (last_done - first_done) / period;
    }

    // Stall-reason breakdown published by accumulateWgCycleStats().
    // Per-WG lifetimes run from creation (launch, tick 0) to
    // completion or end of run, so the breakdown partitions them.
    if (const sim::Vector *v =
            dispatch->stats().tryVector("wgCycles")) {
        for (std::size_t r = 0;
             r < std::min<std::size_t>(v->size(),
                                       sim::numStallReasons); ++r) {
            result.wgCycleBreakdown[r] = v->at(r);
        }
    }
    for (const auto &wg : dispatch->workgroups()) {
        sim::Tick end = wg->completeTick > 0 ? wg->completeTick
                                             : result.runTicks;
        result.wgLifetimeCycles += static_cast<double>(end) / period;
    }

    result.forcedPreemptions = static_cast<std::uint64_t>(
        dispatch->stats().scalar("forcedPreemptions").value());
    result.cpRescues = cp->rescueResumes();
    result.maxLogEntries = cp->monitorLog().maxSize();
    result.maxSpilledConds = cp->maxSpilledConditions();
    result.maxContextStoreBytes = cp->maxContextStoreBytes();
    result.maxMonitoredLines = l2cache->maxMonitored();

    if (monitor) {
        const sim::StatGroup &s = monitor->stats();
        result.condResumesAll = static_cast<std::uint64_t>(
            s.scalar("resumesAll").value());
        result.condResumesOne = static_cast<std::uint64_t>(
            s.scalar("resumesOne").value());
        result.spills = static_cast<std::uint64_t>(
            s.scalar("spills").value());
        result.logFullRetries = static_cast<std::uint64_t>(
            s.scalar("logFullRetries").value());
        result.maxConditions = monitor->maxConditions();
        result.maxWaiters = monitor->maxWaiters();
        result.droppedResumes = static_cast<std::uint64_t>(
            s.scalar("droppedResumes").value());
        result.delayedResumes = static_cast<std::uint64_t>(
            s.scalar("delayedResumes").value());
        result.predictedResumes = static_cast<std::uint64_t>(
            s.scalar("predictedResumes").value());
        result.mispredictedResumes = static_cast<std::uint64_t>(
            s.scalar("mispredictedResumes").value());
    }

    result.hostEvents = eq.numExecuted();
    result.memRequests = pool.totalAllocations();

    result.injectedFaults = faultsApplied;
    for (const auto &rec : dispatch->cuRecoveries()) {
        FaultRecovery recovery;
        recovery.restoreCycle = rec.restoreTick / period;
        recovery.cyclesToFirstSwapIn =
            (rec.firstSwapInTick - rec.restoreTick) / period;
        result.faultRecoveries.push_back(recovery);
    }
}

void
GpuSystem::dumpStats(std::ostream &os) const
{
    forEachStatGroup([&os](const sim::StatGroup &g) { g.dump(os); });
}

void
GpuSystem::forEachStatGroup(
    const std::function<void(const sim::StatGroup &)> &fn) const
{
    fn(dram->stats());
    fn(l2cache->stats());
    fn(dma->stats());
    fn(cp->stats());
    fn(dispatch->stats());
    for (const auto &l1 : l1s)
        fn(l1->stats());
    for (const auto &cu : cus)
        fn(cu->stats());
    if (monitor)
        fn(monitor->stats());
}

} // namespace ifp::core
