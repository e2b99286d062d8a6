#include "mem/l1_cache.hh"

#include "sim/logging.hh"

namespace ifp::mem {

L1Cache::L1Cache(std::string name, sim::EventQueue &eq,
                 const L1Config &cfg, MemDevice &next_level,
                 MemRequestPool &request_pool)
    : Clocked(std::move(name), eq, cfg.clockPeriod),
      config(cfg),
      tags(cfg.sizeBytes, cfg.assoc, cfg.lineBytes),
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
        eventq().schedule(clockEdge(config.bypassLatency),
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
        eventq().schedule(clockEdge(config.hitLatency),
                          [req] { req->respond(); }, "l1.hit");
        return;
    }

    ++misses;
    Addr line_addr = tags.lineOf(req->addr);
    auto [it, first] = mshrs.try_emplace(line_addr);
    it->second.push_back(req);
    if (!first)
        return;  // fill already outstanding

    MemRequestPtr fill = pool.allocate();
    fill->op = MemOp::Read;
    fill->addr = line_addr;
    fill->size = config.lineBytes;
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

    auto it = mshrs.find(line_addr);
    ifp_assert(it != mshrs.end(), "fill with no MSHR");
    std::vector<MemRequestPtr> waiting = std::move(it->second);
    mshrs.erase(it);

    for (const MemRequestPtr &req : waiting) {
        eventq().schedule(clockEdge(config.hitLatency),
                          [req] { req->respond(); }, "l1.fill");
    }
}

} // namespace ifp::mem
