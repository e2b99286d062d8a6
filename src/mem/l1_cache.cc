#include "mem/l1_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ifp::mem {

L1Cache::L1Cache(std::string name, sim::EventQueue &eq,
                 MemDevice &next_level, MemRequestPool &request_pool)
    : Clocked(std::move(name), eq),
      tags(l1SizeBytes, l1Assoc),
      next(next_level),
      pool(request_pool),
      statGroup(this->name()),
      hits(statGroup.addScalar("hits", "read hits")),
      misses(statGroup.addScalar("misses", "read misses")),
      writethroughs(statGroup.addScalar("writethroughs",
                                        "stores forwarded to the L2")),
      bypasses(statGroup.addScalar("bypasses",
                                   "atomics/waits bypassing the L1")),
      invalidations(statGroup.addScalar("invalidations",
                                        "whole-cache invalidations"))
{
}

void
L1Cache::invalidateAll()
{
    tags.invalidateAll();
    ++invalidations;
}

void
L1Cache::access(const MemRequestPtr &req)
{
    switch (req->op) {
      case MemOp::Read:
        handleRead(req);
        return;
      case MemOp::Write: {
        // Write-through, no write-allocate. Keep a present line's
        // replacement state fresh; the store is performed at the L2.
        ++writethroughs;
        if (CacheTags::Line *line = tags.lookup(req->addr))
            tags.touch(*line);
        next.access(req);
        return;
      }
      case MemOp::Atomic:
      case MemOp::ArmWait: {
        // Atomics are performed at the L2 (GCN-style). Acquire
        // semantics invalidate the local L1 when the response
        // returns, before the requester sees it.
        ++bypasses;
        if (req->acquire)
            req->chainResponder(&acquireHook);
        // Charge the bypass latency on the way in.
        eventq().schedule(clockEdge(l1BypassLatency),
                          [this, req] { next.access(req); },
                          "l1.bypass");
        return;
      }
    }
    ifp_panic("unhandled memory op");
}

void
L1Cache::handleRead(const MemRequestPtr &req)
{
    if (CacheTags::Line *line = tags.lookup(req->addr)) {
        ++hits;
        tags.touch(*line);
        eventq().schedule(clockEdge(l1HitLatency),
                          [req] { req->respond(); }, "l1.hit");
        return;
    }

    ++misses;
    Addr line_addr = tags.lineOf(req->addr);
    if (Mshr *pending = findMshr(line_addr)) {
        pending->waiting.push_back(req);
        return;  // fill already outstanding
    }
    auto slot = std::find_if(mshrs.begin(), mshrs.end(), [](const Mshr &m) {
        return m.waiting.empty();
    });
    Mshr &mshr = slot != mshrs.end() ? *slot : mshrs.emplace_back();
    mshr.lineAddr = line_addr;
    mshr.waiting.push_back(req);

    MemRequestPtr fill = pool.allocate();
    fill->op = MemOp::Read;
    fill->addr = line_addr;
    fill->size = cacheLineBytes;
    fill->cuId = req->cuId;
    fill->issueTick = curTick();
    fill->setResponder(this, line_addr);
    next.access(fill);
}

void
L1Cache::onMemResponse(MemRequest &, std::uint64_t tag)
{
    handleFill(static_cast<Addr>(tag));
}

void
L1Cache::handleFill(Addr line_addr)
{
    CacheTags::Victim victim = tags.insert(line_addr);
    (void)victim;  // clean write-through lines need no writeback

    Mshr *mshr = findMshr(line_addr);
    ifp_assert(mshr != nullptr, "fill with no MSHR");
    for (const MemRequestPtr &req : mshr->waiting) {
        eventq().schedule(clockEdge(l1HitLatency),
                          [req] { req->respond(); }, "l1.fill");
    }
    mshr->waiting.clear();
}

L1Cache::Mshr *
L1Cache::findMshr(Addr line_addr)
{
    for (Mshr &m : mshrs) {
        if (!m.waiting.empty() && m.lineAddr == line_addr)
            return &m;
    }
    return nullptr;
}

} // namespace ifp::mem
