#include "syncmon/sync_monitor.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ifp::syncmon {

namespace {

/// @name AWG stall-period predictor
/// @{
/** Floor of the predicted stall window, in GPU cycles. */
constexpr sim::Cycles minStallCycles = 500;
/** Prediction before any observation, in GPU cycles. */
constexpr sim::Cycles defaultStallCycles = 2'000;
/** EWMA weight of new wait-latency observations. */
constexpr double ewmaAlpha = 0.25;
/// @}

/** AWG resume predictor: unique updates above this mean "resume all". */
constexpr unsigned uniqueUpdateThreshold = 2;

/**
 * Lazy monitor cleanup: a line stays monitored (and its Bloom filter
 * keeps accumulating) for this many cycles after its last condition
 * retires. Eagerly clearing tag bits on the retire path would be
 * expensive hardware; the grace period also lets the predictor see
 * the arrival bursts of back-to-back barrier rounds.
 */
constexpr sim::Cycles monitorIdleCycles = 50'000;

} // anonymous namespace

SyncMonController::SyncMonController(std::string name,
                                     sim::EventQueue &eq,
                                     SyncMonMode mode,
                                     const SyncMonConfig &cfg,
                                     mem::L2Cache &l2_cache,
                                     mem::BackingStore &backing,
                                     cp::CommandProcessor &cp_dev)
    : Clocked(std::move(name), eq),
      policyMode(mode),
      config(cfg),
      l2(l2_cache),
      store(backing),
      cp(cp_dev),
      conds(cfg.sets, cfg.ways),
      waiters(cfg.waitingListCapacity),
      statGroup(this->name()),
      registrations(statGroup.addScalar("registrations",
                                        "waiting conditions armed")),
      spills(statGroup.addScalar("spills",
                                 "conditions spilled to the log")),
      logFullRetries(statGroup.addScalar(
          "logFullRetries", "waits rejected because the log was full")),
      resumesAllStat(statGroup.addScalar("resumesAll",
                                         "resume-all events")),
      resumesOneStat(statGroup.addScalar("resumesOne",
                                         "resume-one events")),
      sporadicResumes(statGroup.addScalar(
          "sporadicResumes", "MonRS sporadic notify events")),
      predictAll(statGroup.addScalar("predictAll",
                                     "AWG resume-all predictions")),
      predictOne(statGroup.addScalar("predictOne",
                                     "AWG resume-one predictions")),
      predictedResumes(statGroup.addScalar(
          "predictedResumes", "waiters resumed by the AWG predictor")),
      mispredictedResumes(statGroup.addScalar(
          "mispredictedResumes",
          "predicted resumes that re-registered the same condition")),
      bloomResets(statGroup.addScalar("bloomResets",
                                      "Bloom filter resets")),
      stallTimeouts(statGroup.addScalar("stallTimeouts",
                                        "stall windows that expired")),
      switchedOnTimeout(statGroup.addScalar(
          "switchedOnTimeout",
          "AWG context switches after stall misprediction")),
      evictionsToLog(statGroup.addScalar(
          "evictionsToLog",
          "conditions demoted to the log (evict-youngest policy)")),
      forcedSpills(statGroup.addScalar(
          "forcedSpills",
          "spills forced by SyncMonPressure fault windows")),
      droppedResumesStat(statGroup.addScalar(
          "droppedResumes",
          "resume notifications lost to DropResume fault windows")),
      delayedResumesStat(statGroup.addScalar(
          "delayedResumes",
          "resume notifications deferred by DelayResume windows")),
      waitLatency(statGroup.addHistogram(
          "waitLatency", 0.0, 50'000.0, 20,
          "observed condition-met latencies, in cycles"))
{
    l2.setSyncObserver(this);
}

std::uint64_t
SyncMonController::conditionCacheBits() const
{
    return conds.hardwareBits(config.waitingListCapacity);
}

sim::Cycles
SyncMonController::predictStall(mem::Addr addr) const
{
    auto it = stallEwma.find(addr);
    if (it == stallEwma.end())
        return defaultStallCycles;
    return static_cast<sim::Cycles>(it->second / sim::gpuClockPeriod);
}

void
SyncMonController::observeWaitLatency(mem::Addr addr, sim::Tick waited)
{
    waitLatency.sample(static_cast<double>(waited) /
                       static_cast<double>(sim::gpuClockPeriod));
    auto [it, fresh] = stallEwma.try_emplace(
        addr, static_cast<double>(waited));
    if (!fresh) {
        it->second = ewmaAlpha * static_cast<double>(waited) +
                     (1.0 - ewmaAlpha) * it->second;
    }
}

mem::WaitDecision
SyncMonController::waitDecisionFor(mem::Addr addr)
{
    bool starved = scheduler && scheduler->hasStarvedWork();
    if (policyMode == SyncMonMode::Awg &&
        config.stallPredictionEnabled) {
        if (!starved) {
            return {mem::WaitKind::Stall, config.rescueIntervalCycles};
        }
        // Stall for the predicted wait first; the timeout handler
        // context switches only if the prediction was wrong.
        sim::Cycles predicted = 2 * predictStall(addr);
        predicted = std::clamp(predicted, minStallCycles,
                               config.rescueIntervalCycles);
        return {mem::WaitKind::Stall, predicted};
    }
    if (starved)
        return {mem::WaitKind::Switch, config.rescueIntervalCycles};
    return {mem::WaitKind::Stall, config.rescueIntervalCycles};
}

mem::WaitDecision
SyncMonController::registerWaiter(mem::Addr addr, mem::MemValue expected,
                                  int wg_id)
{
    ++registrations;
    bool addr_only = usesAddrOnlyConditions();

    // AWG accuracy: a WG the predictor resumed that comes straight
    // back for the same condition was woken for nothing.
    auto predicted = lastPredictedResume.find(wg_id);
    if (predicted != lastPredictedResume.end()) {
        if (predicted->second.first == addr &&
            predicted->second.second == expected) {
            ++mispredictedResumes;
        }
        lastPredictedResume.erase(predicted);
    }

    if (pressureDepth > 0) {
        // SyncMonPressure fault window: the condition cache reports
        // itself full, so every new waiter exercises the Monitor Log
        // virtualization path mid-run.
        ++forcedSpills;
        ++spills;
        sim::emitTrace(trace, curTick(),
                       sim::TraceEventKind::CondSpilled, wg_id, -1,
                       sim::StallReason::Running, addr,
                       static_cast<std::int64_t>(expected));
        if (!cp.spillCondition(addr, expected, wg_id)) {
            ++logFullRetries;
            return {mem::WaitKind::Retry, 0};
        }
        noteConditionSpilled(addr);
        return waitDecisionFor(addr);
    }

    ConditionCache::Entry *entry = conds.find(addr, expected, addr_only);
    bool inserted_now = false;
    if (!entry) {
        entry = conds.insert(addr, expected, addr_only, curTick());
        inserted_now = entry != nullptr;
    }

    if (!entry && config.spillPolicy == SpillPolicy::EvictYoungest) {
        // Demote the set's youngest condition to the Monitor Log so
        // older conditions keep their fast hardware monitoring (the
        // replacement-policy study the paper defers).
        ConditionCache::Entry *victim =
            conds.youngestInSet(addr, expected, addr_only);
        if (victim && demoteToLog(*victim)) {
            entry = conds.insert(addr, expected, addr_only,
                                 curTick());
            inserted_now = entry != nullptr;
        }
    }

    if (!entry) {
        // Condition cache set conflict: virtualize via the Monitor
        // Log. The CP will check the spilled condition periodically.
        ++spills;
        sim::emitTrace(trace, curTick(),
                       sim::TraceEventKind::CondSpilled, wg_id, -1,
                       sim::StallReason::Running, addr,
                       static_cast<std::int64_t>(expected));
        if (!cp.spillCondition(addr, expected, wg_id)) {
            ++logFullRetries;
            return {mem::WaitKind::Retry, 0};
        }
        noteConditionSpilled(addr);
        return waitDecisionFor(addr);
    }
    if (inserted_now)
        noteConditionInserted(addr);

    // Deduplicate: a rescued WG re-registering must not grow the list.
    bool already = false;
    for (int n = entry->head; n >= 0; n = waiters.next(n)) {
        if (waiters.node(n).wgId == wg_id) {
            already = true;
            break;
        }
    }

    if (!already) {
        int node = waiters.allocate(Waiter{wg_id, curTick()});
        if (node < 0) {
            // Waiting-WG list full: spill this waiter.
            ++spills;
            sim::emitTrace(trace, curTick(),
                           sim::TraceEventKind::CondSpilled, wg_id, -1,
                           sim::StallReason::Running, addr,
                           static_cast<std::int64_t>(expected));
            if (inserted_now && entry->numWaiters == 0) {
                conds.remove(entry);
                noteConditionRemoved(addr);
            }
            if (!cp.spillCondition(addr, expected, wg_id)) {
                ++logFullRetries;
                return {mem::WaitKind::Retry, 0};
            }
            noteConditionSpilled(addr);
            return waitDecisionFor(addr);
        }
        if (entry->tail >= 0)
            waiters.setNext(entry->tail, node);
        else
            entry->head = node;
        entry->tail = node;
        ++entry->numWaiters;
    }

    l2.setMonitored(addr, true);
    sim::emitTrace(trace, curTick(), sim::TraceEventKind::CondArmed,
                   wg_id, -1, sim::StallReason::Running, addr,
                   static_cast<std::int64_t>(expected));
    return waitDecisionFor(addr);
}

mem::WaitDecision
SyncMonController::onWaitFail(const mem::MemRequest &req,
                              mem::MemValue observed)
{
    (void)observed;
    return registerWaiter(req.addr, mem::waitExpectedOf(req), req.wgId);
}

mem::WaitDecision
SyncMonController::onArmWait(const mem::MemRequest &req)
{
    return registerWaiter(req.addr, req.expected, req.wgId);
}

void
SyncMonController::resumeOne(ConditionCache::Entry &entry)
{
    if (entry.numWaiters == 0)
        return;
    int node = entry.head;
    if (oracle && entry.numWaiters > 1) {
        // Any registered waiter is a legal victim; the FIFO head is
        // merely the stock pick (preferred index 0).
        std::vector<int> nodes;
        for (int n = entry.head; n >= 0; n = waiters.next(n))
            nodes.push_back(n);
        std::vector<int> actor_wgs;
        actor_wgs.reserve(nodes.size());
        for (int n : nodes)
            actor_wgs.push_back(waiters.node(n).wgId);
        unsigned pick =
            oracle->chooseWithActors(sim::ChoicePoint::ResumeVictim,
                                     static_cast<unsigned>(nodes.size()),
                                     0, actor_wgs.data());
        node = nodes[pick];
        if (pick > 0) {
            int prev = nodes[pick - 1];
            waiters.setNext(prev, waiters.next(node));
            if (entry.tail == node)
                entry.tail = prev;
        }
    }
    Waiter w = waiters.node(node);
    if (node == entry.head) {
        entry.head = waiters.next(node);
        if (entry.head < 0)
            entry.tail = -1;
    }
    waiters.release(node);
    --entry.numWaiters;
    ++resumesOneStat;
    sim::emitTrace(trace, curTick(), sim::TraceEventKind::CondFired,
                   w.wgId, -1, sim::StallReason::Running, entry.addr,
                   1);

    observeWaitLatency(entry.addr, curTick() - w.registeredTick);
    mem::Addr addr = entry.addr;
    mem::MemValue value = entry.value;
    maybeRetire(entry);
    notePredictedResume(w.wgId, addr, value);
    notifyResume(w.wgId);
}

void
SyncMonController::resumeAll(ConditionCache::Entry &entry)
{
    ++resumesAllStat;
    sim::emitTrace(trace, curTick(), sim::TraceEventKind::CondFired,
                   -1, -1, sim::StallReason::Running, entry.addr,
                   static_cast<std::int64_t>(entry.numWaiters));
    std::vector<int> wg_ids;
    for (int n = entry.head; n >= 0;) {
        Waiter w = waiters.node(n);
        observeWaitLatency(entry.addr, curTick() - w.registeredTick);
        wg_ids.push_back(w.wgId);
        int next = waiters.next(n);
        waiters.release(n);
        n = next;
    }
    entry.head = -1;
    entry.tail = -1;
    entry.numWaiters = 0;
    mem::Addr addr = entry.addr;
    mem::MemValue value = entry.value;
    maybeRetire(entry);
    sim::oraclePermute(oracle, sim::ChoicePoint::ResumeOrder, wg_ids);
    for (int wg_id : wg_ids) {
        notePredictedResume(wg_id, addr, value);
        notifyResume(wg_id);
    }
}

void
SyncMonController::notifyResume(int wg_id)
{
    if (!scheduler)
        return;
    if (dropDepth > 0) {
        // The lost-wakeup scenario: the condition fired, the waiter
        // was already unlinked, and the notification evaporates. Only
        // the CP rescue backstop (or the liveness oracle's verdict)
        // can save the WG now.
        ++droppedResumesStat;
        return;
    }
    if (delayDepth > 0 && resumeDelayCycles > 0) {
        ++delayedResumesStat;
        eventq().schedule(clockEdge(resumeDelayCycles), [this, wg_id] {
            if (scheduler)
                scheduler->resumeWg(wg_id);
        }, "syncmon.delayedResume");
        return;
    }
    scheduler->resumeWg(wg_id);
}

void
SyncMonController::beginResumeDelay(sim::Cycles delay_cycles)
{
    ++delayDepth;
    resumeDelayCycles = std::max(resumeDelayCycles, delay_cycles);
}

void
SyncMonController::endResumeDelay()
{
    if (delayDepth && --delayDepth == 0)
        resumeDelayCycles = 0;
}

bool
SyncMonController::demoteToLog(ConditionCache::Entry &entry)
{
    if (cp.monitorLog().freeEntries() < entry.numWaiters)
        return false;
    ++evictionsToLog;
    mem::Addr addr = entry.addr;
    for (int n = entry.head; n >= 0;) {
        const Waiter &w = waiters.node(n);
        bool ok = cp.spillCondition(entry.addr, entry.value, w.wgId);
        ifp_assert(ok, "monitor log filled during demotion");
        ++spills;
        noteConditionSpilled(entry.addr);
        int next = waiters.next(n);
        waiters.release(n);
        n = next;
    }
    entry.head = -1;
    entry.tail = -1;
    entry.numWaiters = 0;
    conds.remove(&entry);
    noteConditionRemoved(addr);
    return true;
}

void
SyncMonController::removeWaiter(ConditionCache::Entry &entry, int wg_id)
{
    int prev = -1;
    int n = entry.head;
    while (n >= 0) {
        int next = waiters.next(n);
        if (waiters.node(n).wgId == wg_id) {
            if (prev >= 0)
                waiters.setNext(prev, next);
            else
                entry.head = next;
            if (entry.tail == n)
                entry.tail = prev;
            waiters.release(n);
            --entry.numWaiters;
        } else {
            prev = n;
        }
        n = next;
    }
}

void
SyncMonController::maybeRetire(ConditionCache::Entry &entry)
{
    if (entry.numWaiters > 0)
        return;
    mem::Addr addr = entry.addr;
    conds.remove(&entry);
    noteConditionRemoved(addr);
}

void
SyncMonController::noteConditionInserted(mem::Addr addr)
{
    mem::Addr line = lineOf(addr);
    ++lineConds[line];
    lineIdleSince.erase(line);
}

void
SyncMonController::noteConditionSpilled(mem::Addr addr)
{
    // One refcount per spilled waiter: the CP reports retirements per
    // SpilledCond entry, so insertions must match that granularity.
    // Keeping the line monitored through the spill window is what
    // keeps the AWG Bloom filter observing updates (and the lazy
    // cleanup from resetting it) while the waiters sit in the log.
    mem::Addr line = lineOf(addr);
    ++lineConds[line];
    lineIdleSince.erase(line);
    l2.setMonitored(addr, true);
}

void
SyncMonController::onSpilledCondRemoved(mem::Addr addr, int wg_id)
{
    (void)wg_id;
    noteConditionRemoved(addr);
}

void
SyncMonController::notePredictedResume(int wg_id, mem::Addr addr,
                                       mem::MemValue value)
{
    if (policyMode != SyncMonMode::Awg)
        return;
    ++predictedResumes;
    lastPredictedResume[wg_id] = {addr, value};
}

void
SyncMonController::noteConditionRemoved(mem::Addr addr)
{
    mem::Addr line = lineOf(addr);
    auto it = lineConds.find(line);
    ifp_assert(it != lineConds.end() && it->second > 0,
               "line condition refcount underflow");
    if (--it->second > 0)
        return;

    // Lazy cleanup: keep the monitored bit (and the Bloom state) for
    // a grace period. Only when the line stays condition-free does
    // the bit clear and — per the paper — the Bloom filter reset.
    sim::Tick marked = curTick();
    lineIdleSince[line] = marked;
    eventq().schedule(clockEdge(monitorIdleCycles),
                      [this, line, marked] {
        auto idle = lineIdleSince.find(line);
        if (idle == lineIdleSince.end() || idle->second != marked)
            return;  // re-monitored (or a newer idle mark) meanwhile
        lineIdleSince.erase(idle);
        l2.setMonitored(line, false);
        if (policyMode == SyncMonMode::Awg) {
            blooms.resetFor(line);
            ++bloomResets;
        }
    }, "syncmon.monitorIdle");
}

void
SyncMonController::onMonitoredAccess(mem::Addr addr,
                                     mem::MemValue new_value,
                                     bool is_update, int by_wg)
{
    (void)by_wg;
    switch (policyMode) {
      case SyncMonMode::MonRSAll: {
        // Sporadic: any access notifies, no condition check.
        ConditionCache::Entry *e = conds.find(addr, 0, true);
        if (e) {
            ++sporadicResumes;
            resumeAll(*e);
        }
        return;
      }
      case SyncMonMode::MonRAll:
      case SyncMonMode::MonNRAll: {
        if (!is_update)
            return;
        ConditionCache::Entry *e = conds.find(addr, new_value, false);
        if (e)
            resumeAll(*e);
        return;
      }
      case SyncMonMode::MonNROne: {
        if (!is_update)
            return;
        ConditionCache::Entry *e = conds.find(addr, new_value, false);
        if (e)
            resumeOne(*e);
        return;
      }
      case SyncMonMode::Awg: {
        // The Bloom filters are keyed by monitored *line* (the
        // monitored bit lives in the L2 tags): arrival counters
        // colocated with a barrier's release flag feed the same
        // filter as the flag itself, which is how barriers show up
        // as many unique updates.
        if (is_update)
            blooms.filterFor(lineOf(addr)).observe(new_value);
        if (!is_update)
            return;
        ConditionCache::Entry *e = conds.find(addr, new_value, false);
        if (!e)
            return;
        unsigned unique = blooms.filterFor(lineOf(addr)).uniqueCount();
        sim::emitTrace(trace, curTick(), sim::TraceEventKind::AwgPredict,
                       -1, -1, sim::StallReason::Running, addr, unique);
        if (e->numWaiters > 1 &&
            unique > uniqueUpdateThreshold) {
            ++predictAll;
            resumeAll(*e);
        } else {
            ++predictOne;
            resumeOne(*e);
        }
        return;
      }
      case SyncMonMode::MinResume: {
        // Oracle: resume a waiter only when its condition holds right
        // now; one at a time, so resumed WGs never contend.
        conds.forEachOnAddr(addr, [&](ConditionCache::Entry &e) {
            if (store.read(e.addr, 8) == e.value)
                resumeOne(e);
        });
        return;
      }
    }
}

mem::WaitDecision
SyncMonController::onStallTimeout(int wg_id, mem::Addr addr,
                                  mem::MemValue expected)
{
    ++stallTimeouts;
    if (policyMode == SyncMonMode::Awg && scheduler &&
        scheduler->hasStarvedWork()) {
        // Stall-period misprediction while others are starved: yield
        // the resources. The waiter stays registered; the monitor or
        // the CP rescue brings it back.
        ++switchedOnTimeout;
        return {mem::WaitKind::Switch, config.rescueIntervalCycles};
    }

    // Otherwise the waiter resumes and retries (Mesa semantics, the
    // paper's "eventually the stalled WGs will time out and be
    // activated"). Drop its registration; a failing retry
    // re-registers.
    ConditionCache::Entry *e =
        conds.find(addr, expected, usesAddrOnlyConditions());
    if (e) {
        removeWaiter(*e, wg_id);
        maybeRetire(*e);
    }
    return {mem::WaitKind::Proceed, 0};
}

} // namespace ifp::syncmon
