/**
 * @file
 * Per-CU L1 data cache.
 *
 * GPU-style: write-through, no write-allocate, and all atomics bypass
 * the L1 and are performed at the shared L2 (GCN semantics). Atomic
 * responses carrying acquire semantics invalidate the entire L1, which
 * models the buffer_wbinvl1-style flush GPUs issue at acquire points.
 *
 * The L1 is a timing filter only; data lives in the BackingStore and is
 * accessed at the point of service (L2/DRAM).
 */

#ifndef IFP_MEM_L1_CACHE_HH
#define IFP_MEM_L1_CACHE_HH

#include <unordered_map>
#include <vector>

#include "mem/cache_tags.hh"
#include "mem/request.hh"
#include "sim/clocked.hh"
#include "sim/stats.hh"

namespace ifp::mem {

/** L1 cache configuration (defaults per Table 1). */
struct L1Config
{
    std::size_t sizeBytes = 32 * 1024;
    unsigned assoc = 16;
    unsigned lineBytes = 64;
    /** Load-to-use latency on a hit, in GPU cycles. */
    sim::Cycles hitLatency = 30;
    /** Extra cycles for requests that bypass the L1 (atomics). */
    sim::Cycles bypassLatency = 4;
    sim::Tick clockPeriod = sim::periodFromFrequency(2'000'000'000ULL);
};

/** Write-through, no-write-allocate L1 data cache. */
class L1Cache : public sim::Clocked, public MemDevice,
                public MemResponder
{
  public:
    L1Cache(std::string name, sim::EventQueue &eq, const L1Config &cfg,
            MemDevice &next_level, MemRequestPool &request_pool);

    void access(const MemRequestPtr &req) override;

    /** Fill completion (the tag carries the line address). */
    void onMemResponse(MemRequest &req, std::uint64_t tag) override;

    /** Drop every line (acquire semantics / context switch). */
    void invalidateAll();

    sim::StatGroup &stats() { return statGroup; }
    const sim::StatGroup &stats() const { return statGroup; }

  private:
    void handleRead(const MemRequestPtr &req);
    void handleFill(Addr line_addr);

    /**
     * Chained into acquire responses: flushes the L1 before the
     * requester's own responder runs (buffer_wbinvl1 semantics).
     */
    struct AcquireHook : MemResponder
    {
        explicit AcquireHook(L1Cache &c) : cache(c) {}

        void
        onMemResponse(MemRequest &, std::uint64_t) override
        {
            cache.invalidateAll();
        }

        L1Cache &cache;
    };

    L1Config config;
    CacheTags tags;
    MemDevice &next;
    MemRequestPool &pool;
    AcquireHook acquireHook{*this};

    /** Reads outstanding per missing line (MSHR-style merging). */
    std::unordered_map<Addr, std::vector<MemRequestPtr>> mshrs;

    sim::StatGroup statGroup;
    sim::Scalar &hits;
    sim::Scalar &misses;
    sim::Scalar &writethroughs;
    sim::Scalar &bypasses;
    sim::Scalar &invalidations;
};

} // namespace ifp::mem

#endif // IFP_MEM_L1_CACHE_HH
