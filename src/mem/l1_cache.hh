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

#include <vector>

#include "mem/cache_tags.hh"
#include "mem/request.hh"
#include "sim/clocked.hh"
#include "sim/stats.hh"

namespace ifp::mem {

/// @name L1 geometry (Table 1)
/// @{
/** Capacity of one CU's L1, in bytes. */
constexpr std::size_t l1SizeBytes = 32 * 1024;
/** Ways per L1 set. */
constexpr unsigned l1Assoc = 16;
/// @}

/** Load-to-use latency of an L1 hit, in GPU cycles (Table 1). */
constexpr sim::Cycles l1HitLatency = 30;
/** Extra cycles for requests that bypass the L1 (atomics). */
constexpr sim::Cycles l1BypassLatency = 4;

/** Write-through, no-write-allocate L1 data cache. */
class L1Cache : public sim::Clocked, public MemDevice,
                public MemResponder
{
  public:
    L1Cache(std::string name, sim::EventQueue &eq, MemDevice &next_level,
            MemRequestPool &request_pool);

    void access(const MemRequestPtr &req) override;

    /** Fill completion (the tag carries the line address). */
    void onMemResponse(MemRequest &req, std::uint64_t tag) override;

    /** Drop every line (acquire semantics / context switch). */
    void invalidateAll();

    sim::StatGroup &stats() { return statGroup; }
    const sim::StatGroup &stats() const { return statGroup; }

  private:
    /**
     * One outstanding line fill and the reads merged into it, in
     * arrival order (MSHR-style merging); a slot with no reads is
     * free. A slot is reused once its fill returns and keeps its
     * vector's capacity, so steady-state misses allocate nothing.
     */
    struct Mshr
    {
        Addr lineAddr = 0;
        std::vector<MemRequestPtr> waiting;
    };

    void handleRead(const MemRequestPtr &req);
    void handleFill(Addr line_addr);

    /** The MSHR with reads waiting on @p line_addr, or nullptr. */
    Mshr *findMshr(Addr line_addr);

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

    CacheTags tags;
    MemDevice &next;
    MemRequestPool &pool;
    AcquireHook acquireHook{*this};

    /** Busy and free slots; as many as fills were ever in flight. */
    std::vector<Mshr> mshrs;

    sim::StatGroup statGroup;
    sim::Scalar &hits;
    sim::Scalar &misses;
    sim::Scalar &writethroughs;
    sim::Scalar &bypasses;
    sim::Scalar &invalidations;
};

} // namespace ifp::mem

#endif // IFP_MEM_L1_CACHE_HH
