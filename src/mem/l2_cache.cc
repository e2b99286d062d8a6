#include "mem/l2_cache.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace ifp::mem {

L2Cache::L2Cache(std::string name, sim::EventQueue &eq,
                 const L2Config &config, MemDevice &dram_dev,
                 BackingStore &backing, MemRequestPool &request_pool)
    : Clocked(std::move(name), eq, config.clockPeriod),
      cfg(config),
      dram(dram_dev),
      store(backing),
      pool(request_pool),
      tags(config.sizeBytes, config.assoc, config.lineBytes),
      banks(config.banks),
      descDrain(this->name() + ".drain"),
      descLineBusy(this->name() + ".lineBusy"),
      descFinish(this->name() + ".finish"),
      statGroup(this->name()),
      hits(statGroup.addScalar("hits", "accesses hitting in the tags")),
      misses(statGroup.addScalar("misses", "accesses missing")),
      atomics(statGroup.addScalar("atomics", "atomic RMWs performed")),
      waitingAtomics(statGroup.addScalar("waitingAtomics",
                                         "waiting atomics seen")),
      waitFails(statGroup.addScalar("waitFails",
                                    "waiting atomics that failed")),
      armWaits(statGroup.addScalar("armWaits",
                                   "wait-instructions armed")),
      monitoredNotifies(statGroup.addScalar(
          "monitoredNotifies", "accesses to monitored lines reported")),
      writebacks(statGroup.addScalar("writebacks",
                                     "dirty victims written to DRAM")),
      queueTicks(statGroup.addScalar(
          "queueTicks", "cumulative ticks spent in bank queues"))
{
    ifp_assert(cfg.banks > 0, "L2 needs at least one bank");
}

unsigned
L2Cache::bankFor(Addr addr) const
{
    return (addr / cfg.lineBytes) % cfg.banks;
}

void
L2Cache::setMonitored(Addr addr, bool monitored)
{
    Addr line_addr = tags.lineOf(addr);
    if (monitored) {
        monitoredLines.insert(line_addr);
        maxMonitoredLines =
            std::max(maxMonitoredLines, monitoredLines.size());
    } else {
        monitoredLines.erase(line_addr);
    }
    if (CacheTags::Line *line = tags.lookup(line_addr))
        line->pinned = monitored;
}

bool
L2Cache::isMonitored(Addr addr) const
{
    return monitoredLines.count(tags.lineOf(addr)) != 0;
}

void
L2Cache::access(const MemRequestPtr &req)
{
    unsigned idx = bankFor(req->addr);
    Bank &bank = banks[idx];
    // Remember entry time for queueing statistics.
    req->issueTick = curTick();
    bank.queue.push_back(req);
    if (!bank.drainScheduled)
        drainBank(idx);
}

void
L2Cache::drainBank(unsigned idx)
{
    Bank &bank = banks[idx];
    if (bank.queue.empty()) {
        bank.drainScheduled = false;
        return;
    }

    sim::Tick now = curTick();
    if (bank.busyUntil > now) {
        bank.drainScheduled = true;
        eventq().schedule(bank.busyUntil, [this, idx] {
            banks[idx].drainScheduled = false;
            drainBank(idx);
        }, descDrain);
        return;
    }

    bool is_atomic;
    Addr line_addr;
    {
        const MemRequestPtr &head = bank.queue.front();
        is_atomic = head->op == MemOp::Atomic;
        line_addr = tags.lineOf(head->addr);
    }

    if (is_atomic) {
        // Same-line read-modify-write turnaround: the head atomic
        // waits until the line's previous RMW retires (head-of-line
        // blocking, as in a banked FIFO).
        auto it = bank.lineBusyUntil.find(line_addr);
        if (it != bank.lineBusyUntil.end() && it->second > now) {
            bank.drainScheduled = true;
            eventq().schedule(it->second, [this, idx] {
                banks[idx].drainScheduled = false;
                drainBank(idx);
            }, descLineBusy);
            return;
        }
    }

    MemRequestPtr req = std::move(bank.queue.front());
    bank.queue.pop_front();
    queueTicks += static_cast<double>(now - req->issueTick);

    sim::Cycles occupancy =
        is_atomic ? cfg.atomicServiceCycles : cfg.serviceCycles;
    bank.busyUntil = now + cyclesToTicks(occupancy);
    if (is_atomic) {
        bank.lineBusyUntil[line_addr] =
            now + cyclesToTicks(cfg.sameLineAtomicGapCycles);
    }

    serviceRequest(std::move(req));

    if (!bank.queue.empty()) {
        bank.drainScheduled = true;
        eventq().schedule(bank.busyUntil, [this, idx] {
            banks[idx].drainScheduled = false;
            drainBank(idx);
        }, descDrain);
    }
}

void
L2Cache::scheduleFinish(MemRequestPtr req)
{
    eventq().schedule(clockEdge(cfg.hitLatency),
                      [this, r = std::move(req)] { finishAccess(r); },
                      descFinish);
}

void
L2Cache::serviceRequest(MemRequestPtr req)
{
    if (CacheTags::Line *line = tags.lookup(req->addr)) {
        ++hits;
        tags.touch(*line);
        if (req->isUpdate())
            line->dirty = true;
        scheduleFinish(std::move(req));
        return;
    }

    ++misses;
    MemRequestPtr fill = pool.allocate();
    fill->op = MemOp::Read;
    fill->addr = tags.lineOf(req->addr);
    fill->size = cfg.lineBytes;
    fill->issueTick = curTick();
    // The blocked request rides in the fill's parent slot (owned, so
    // a torn-down in-flight fill still releases it to the pool).
    fill->parent = std::move(req);
    fill->setResponder(this);
    dram.access(fill);
}

void
L2Cache::onMemResponse(MemRequest &fill, std::uint64_t)
{
    MemRequestPtr req = std::move(fill.parent);
    CacheTags::Line *line = nullptr;
    CacheTags::Victim victim = tags.insert(req->addr, &line);
    if (!victim.noWayFree) {
        if (victim.evicted && victim.wasDirty) {
            ++writebacks;
            MemRequestPtr wb = pool.allocate();
            wb->op = MemOp::Write;
            wb->addr = victim.lineAddr;
            wb->size = cfg.lineBytes;
            wb->issueTick = curTick();
            dram.access(wb);  // fire and forget: recycled by refcount
        }
        if (req->isUpdate())
            line->dirty = true;
        if (monitoredLines.count(tags.lineOf(req->addr)))
            line->pinned = true;
    }
    scheduleFinish(std::move(req));
}

void
L2Cache::finishAccess(const MemRequestPtr &req)
{
    bool monitored = isMonitored(req->addr);

    switch (req->op) {
      case MemOp::Read: {
        req->result = store.read(req->addr, std::min(req->size, 8u));
        if (monitored && observer) {
            ++monitoredNotifies;
            observer->onMonitoredAccess(req->addr, req->result, false,
                                        req->wgId);
        }
        req->respond();
        return;
      }
      case MemOp::Write: {
        store.write(req->addr, req->operand, std::min(req->size, 8u));
        if (monitored && observer) {
            ++monitoredNotifies;
            observer->onMonitoredAccess(req->addr, req->operand, true,
                                        req->wgId);
        }
        req->respond();
        return;
      }
      case MemOp::Atomic: {
        ++atomics;
        MemValue old_value = store.read(req->addr, req->size);
        bool success = true;
        if (req->waiting) {
            ++waitingAtomics;
            MemValue exp = req->aop == AtomicOpcode::Cas ? req->compare
                                                         : req->expected;
            success = waitingAtomicSucceeded(req->aop, old_value, exp);
        }

        if (success) {
            AtomicResult res = applyAtomic(req->aop, old_value,
                                           req->operand, req->compare);
            if (res.wrote)
                store.write(req->addr, res.newValue, req->size);
            req->result = old_value;
            req->waitFailed = false;
            if (monitored && observer) {
                ++monitoredNotifies;
                observer->onMonitoredAccess(req->addr, res.newValue,
                                            res.wrote, req->wgId);
            }
        } else {
            ++waitFails;
            req->result = old_value;
            req->waitFailed = true;
            // The observer registers the waiting condition and decides
            // how the WG should wait. With no observer installed
            // (Baseline/Sleep policies) the code's own retry loop runs.
            if (observer) {
                req->decision = observer->onWaitFail(*req, old_value);
            } else {
                req->decision = WaitDecision{WaitKind::Proceed, 0};
            }
            // A failed waiting atomic still *accessed* the line; the
            // sporadic policy (MonRS) wants to hear about it.
            if (monitored && observer) {
                ++monitoredNotifies;
                observer->onMonitoredAccess(req->addr, old_value, false,
                                            req->wgId);
            }
        }
        req->respond();
        return;
      }
      case MemOp::ArmWait: {
        ++armWaits;
        req->decision = observer ? observer->onArmWait(*req)
                                 : WaitDecision{WaitKind::Proceed, 0};
        req->respond();
        return;
      }
    }
    ifp_panic("unhandled memory op at L2");
}

} // namespace ifp::mem
