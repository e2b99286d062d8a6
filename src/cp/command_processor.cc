#include "cp/command_processor.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ifp::cp {

namespace {

/** Period of the firmware's housekeeping loop, in GPU cycles. */
constexpr sim::Cycles checkIntervalCycles = 2000;
/** Monitor Log entries drained per housekeeping pass. */
constexpr unsigned logDrainPerCheck = 64;
/** Monitor Log base address in global memory. */
constexpr mem::Addr monitorLogBase = 0x4000'0000ULL;

} // anonymous namespace

CommandProcessor::CommandProcessor(std::string name, sim::EventQueue &eq,
                                   const CpConfig &cfg,
                                   mem::DmaEngine &dma_engine,
                                   mem::BackingStore &backing,
                                   mem::MemDevice *l2,
                                   mem::MemRequestPool *request_pool)
    : Clocked(std::move(name), eq),
      dma(dma_engine),
      store(backing),
      log(monitorLogBase, cfg.monitorLogCapacity, backing, l2,
          request_pool),
      admScheduler(cfg.admission),
      statGroup(this->name()),
      contextSavesStat(statGroup.addScalar("contextSaves",
                                           "WG contexts saved")),
      contextRestoresStat(statGroup.addScalar("contextRestores",
                                              "WG contexts restored")),
      logDrained(statGroup.addScalar("logDrained",
                                     "monitor log entries drained")),
      spilledResumes(statGroup.addScalar(
          "spilledResumes", "resumes from spilled-condition checks")),
      rescuesFired(statGroup.addScalar("rescuesFired",
                                       "CP rescue timeouts fired")),
      jamRejects(statGroup.addScalar(
          "jamRejects", "spills rejected by LogJam fault windows")),
      stallDeferrals(statGroup.addScalar(
          "stallDeferrals",
          "housekeeping passes skipped while the firmware was stalled"))
{
}

void
CommandProcessor::stallFirmware(sim::Tick until)
{
    firmwareStalledUntil = std::max(firmwareStalledUntil, until);
}

void
CommandProcessor::saveContext(gpu::WorkGroup *wg,
                              std::function<void()> done)
{
    ++contextSavesStat;
    std::uint64_t bytes = wg->kernel->contextBytes();
    currentContextBytes += bytes;
    maxContextBytes = std::max(maxContextBytes, currentContextBytes);
    dma.transfer(bytes, std::move(done));
}

void
CommandProcessor::restoreContext(gpu::WorkGroup *wg,
                                 std::function<void()> done)
{
    ++contextRestoresStat;
    std::uint64_t bytes = wg->kernel->contextBytes();
    ifp_assert(currentContextBytes >= bytes,
               "context store underflow for wg%d", wg->id);
    dma.transfer(bytes, [this, bytes, cb = std::move(done)] {
        currentContextBytes -= bytes;
        cb();
    });
}

void
CommandProcessor::armRescue(int wg_id, sim::Cycles timeout_cycles)
{
    rescueDeadlines[wg_id] = clockEdge(timeout_cycles);
    ensureHousekeeping();
}

void
CommandProcessor::cancelRescue(int wg_id)
{
    rescueDeadlines.erase(wg_id);
    // A resuming WG's spilled conditions are stale: it will re-check
    // and, if needed, re-register (Mesa semantics).
    dropSpilledFor(wg_id);
}

bool
CommandProcessor::spillCondition(mem::Addr addr, mem::MemValue expected,
                                 int wg_id)
{
    if (jamDepth > 0) {
        ++jamRejects;
        return false;
    }
    bool ok = log.append(MonitorLogEntry{addr, expected, wg_id});
    if (ok) {
        sim::emitTrace(trace, curTick(), sim::TraceEventKind::LogAbsorb,
                       wg_id, -1, sim::StallReason::Running, addr,
                       static_cast<std::int64_t>(log.size()));
        ensureHousekeeping();
    }
    return ok;
}

void
CommandProcessor::dropSpilledFor(int wg_id)
{
    std::erase_if(spilled, [this, wg_id](const SpilledCond &c) {
        if (c.wgId != wg_id)
            return false;
        if (spillObserver)
            spillObserver->onSpilledCondRemoved(c.addr, c.wgId);
        return true;
    });
}

bool
CommandProcessor::hasWork() const
{
    return !log.empty() || !spilled.empty() || !rescueDeadlines.empty();
}

void
CommandProcessor::ensureHousekeeping()
{
    if (housekeepingScheduled || !hasWork())
        return;
    housekeepingScheduled = true;
    eventq().schedule(clockEdge(checkIntervalCycles),
                      [this] { housekeeping(); },
                      "cp.housekeeping");
}

void
CommandProcessor::housekeeping()
{
    housekeepingScheduled = false;
    sim::Tick now = curTick();

    if (now < firmwareStalledUntil) {
        // CpStall fault: keep ticking but do no work until the stall
        // window closes; pending drains, checks and rescues all wait.
        ++stallDeferrals;
        ensureHousekeeping();
        return;
    }

    // 1. Drain the Monitor Log into the lookup-efficient table.
    unsigned drained = 0;
    for (unsigned i = 0; i < logDrainPerCheck; ++i) {
        auto entry = log.pop();
        if (!entry)
            break;
        ++logDrained;
        ++drained;
        spilled.push_back(
            SpilledCond{entry->addr, entry->expected, entry->wgId});
    }
    if (drained > 0) {
        sim::emitTrace(trace, now, sim::TraceEventKind::LogDrain, -1,
                       -1, sim::StallReason::Running, 0,
                       static_cast<std::int64_t>(drained));
    }
    maxSpilled =
        std::max(maxSpilled, static_cast<unsigned>(spilled.size()));

    // 2. Check spilled waiting conditions against memory.
    std::vector<int> to_resume;
    std::erase_if(spilled, [&](const SpilledCond &c) {
        if (store.read(c.addr, 8) == c.expected) {
            to_resume.push_back(c.wgId);
            if (spillObserver)
                spillObserver->onSpilledCondRemoved(c.addr, c.wgId);
            return true;
        }
        return false;
    });
    sim::oraclePermute(oracle, sim::ChoicePoint::SpillScan, to_resume);
    for (int wg_id : to_resume) {
        ++spilledResumes;
        if (scheduler)
            scheduler->resumeWg(wg_id);
    }

    // 3. Fire expired rescue timers (Mesa: resumed WGs re-check).
    std::vector<int> rescued;
    for (const auto &[wg_id, deadline] : rescueDeadlines) {
        if (deadline <= now)
            rescued.push_back(wg_id);
    }
    if (oracle) {
        // rescueDeadlines is an unordered_map: its iteration order is
        // per-run deterministic but opaque. Canonicalize before the
        // oracle permutes so a replayed choice sequence means the
        // same thing in every run; the no-oracle path keeps the raw
        // order byte-for-byte.
        std::sort(rescued.begin(), rescued.end());
        sim::oraclePermute(oracle, sim::ChoicePoint::RescueOrder,
                           rescued);
    }
    for (int wg_id : rescued) {
        rescueDeadlines.erase(wg_id);
        ++rescuesFired;
        if (scheduler)
            scheduler->resumeWg(wg_id);
    }

    ensureHousekeeping();
}

} // namespace ifp::cp
