/**
 * @file
 * Memory request/response transport.
 *
 * A MemRequest travels from a compute unit through the L1 to the shared
 * L2 (and possibly DRAM). Requests are pooled: every GpuSystem owns one
 * MemRequestPool, allocate() hands out intrusive-refcount MemRequestPtr
 * handles, and a request whose last handle drops returns to the pool —
 * the CU->L1->L2->DRAM round trip performs no heap allocation in steady
 * state. The pool asserts on destruction that no request leaked, which
 * catches the "response callback keeps its own request alive" bug class
 * structurally instead of by LeakSanitizer luck.
 *
 * Responses are delivered through a typed, non-allocating callback: a
 * MemResponder object plus a 64-bit tag, set at issue time. Devices
 * that need bookkeeping *around* the requester's completion (the L1's
 * acquire-invalidate) install themselves in the separate chain slot,
 * which fires before the primary responder. Neither slot can capture a
 * MemRequestPtr, so the self-cycle class that std::function callbacks
 * invited (a request owning itself through its captured handle) is
 * impossible by construction. A request that must keep another request
 * alive across an asynchronous hop (the L2 fill carrying its blocked
 * original) uses the dedicated `parent` handle, which the pool releases
 * on recycle even when the simulation tears down mid-flight.
 *
 * Waiting atomics (the paper's new instructions) are ordinary atomics
 * with `waiting == true` and an `expected` operand. When a waiting
 * atomic fails its comparison at the L2, the response carries a
 * WaitDecision telling the issuing work-group how to wait (stall on the
 * CU, context switch out, or retry because the Monitor Log is full).
 *
 * Thread-affinity: a pool and its requests belong to one GpuSystem and
 * are confined to its thread (one per parallel-sweep worker), so the
 * refcounts are plain integers, not atomics.
 */

#ifndef IFP_MEM_REQUEST_HH
#define IFP_MEM_REQUEST_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mem/atomic_op.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace ifp::mem {

class MemRequest;
class MemRequestPool;

/** Kind of memory access. */
enum class MemOp
{
    Read,     //!< plain load
    Write,    //!< plain store
    Atomic,   //!< RMW performed at the L2 (possibly waiting)
    ArmWait,  //!< wait-instruction: arm the monitor (MonR/MonRS styles)
};

/** How a failed waiting atomic / armed wait should behave. */
enum class WaitKind
{
    Proceed,  //!< operation succeeded, keep executing
    Stall,    //!< wait while keeping CU resources
    Switch,   //!< yield resources: context switch the WG out
    Retry,    //!< Monitor Log full: re-execute the atomic (Mesa)
};

/** Decision attached to the response of a waiting operation. */
struct WaitDecision
{
    WaitKind kind = WaitKind::Proceed;
    /**
     * A rescue/timeout interval in GPU cycles; 0 means none. For the
     * Timeout policy this is the policy interval itself; for monitor
     * policies it is the backstop that re-activates the WG if the
     * monitor misses or mispredicts.
     */
    sim::Cycles timeoutCycles = 0;
};

/**
 * Typed completion callback: the issuing device registers itself (plus
 * a tag encoding per-request context — a wavefront pointer, a line
 * address) instead of a heap-backed std::function. onMemResponse runs
 * at response time, exactly once per registered slot.
 */
class MemResponder
{
  public:
    virtual ~MemResponder() = default;

    virtual void onMemResponse(MemRequest &req, std::uint64_t tag) = 0;
};

/** Owning handle to a pooled MemRequest (intrusive refcount). */
class MemRequestPtr
{
  public:
    MemRequestPtr() = default;
    MemRequestPtr(std::nullptr_t) {}

    // The copy operations are noexcept (plain refcount bumps) and
    // must say so: devices capture handles from `const MemRequestPtr&`
    // parameters, which makes the lambda member const and its implicit
    // move a copy — SmallFunc only stores nothrow-movable callables
    // inline, so a throwing copy would silently put every scheduled
    // response on the heap (tests/test_alloc_gate.cc pins this).
    MemRequestPtr(const MemRequestPtr &other) noexcept : req(other.req)
    {
        retain();
    }

    MemRequestPtr(MemRequestPtr &&other) noexcept : req(other.req)
    {
        other.req = nullptr;
    }

    MemRequestPtr &
    operator=(const MemRequestPtr &other) noexcept
    {
        MemRequestPtr copy(other);
        std::swap(req, copy.req);
        return *this;
    }

    MemRequestPtr &
    operator=(MemRequestPtr &&other) noexcept
    {
        std::swap(req, other.req);
        return *this;
    }

    ~MemRequestPtr() { release(); }

    MemRequest *operator->() const { return req; }
    MemRequest &operator*() const { return *req; }
    MemRequest *get() const { return req; }
    explicit operator bool() const { return req != nullptr; }

    void
    reset()
    {
        release();
        req = nullptr;
    }

    bool operator==(const MemRequestPtr &o) const { return req == o.req; }
    bool operator!=(const MemRequestPtr &o) const { return req != o.req; }

  private:
    friend class MemRequestPool;

    /** Adopt an already-retained raw pointer (pool allocate()). */
    explicit MemRequestPtr(MemRequest *raw) : req(raw) {}

    inline void retain() const noexcept;
    inline void release() const noexcept;

    MemRequest *req = nullptr;
};

/** A memory transaction in flight. */
class MemRequest
{
  public:
    MemOp op = MemOp::Read;
    Addr addr = 0;
    unsigned size = 8;

    /// @name Atomic payload
    /// @{
    AtomicOpcode aop = AtomicOpcode::Load;
    MemValue operand = 0;
    MemValue compare = 0;    //!< CAS comparison operand
    bool waiting = false;    //!< waiting-atomic semantics requested
    MemValue expected = 0;   //!< expected value for waiting forms
    bool acquire = false;    //!< acquire semantics (invalidates L1)
    bool release = false;    //!< release semantics
    /// @}

    /// @name Requester identity
    /// @{
    int cuId = -1;
    int wgId = -1;
    int wfId = -1;
    /// @}

    /// @name Response payload
    /// @{
    MemValue result = 0;        //!< loaded / observed-old value
    bool waitFailed = false;    //!< waiting atomic failed its compare
    WaitDecision decision;      //!< how the WG should wait
    /// @}

    sim::Tick issueTick = 0;

    /**
     * A request this one keeps alive until it completes or is
     * recycled — the L2 fill's blocked original. Held here (not
     * smuggled through a tag) so teardown of an in-flight fill still
     * releases the original back to the pool.
     */
    MemRequestPtr parent;

    /** Register the requester's completion callback. */
    void
    setResponder(MemResponder *r, std::uint64_t t = 0)
    {
        ifp_assert(responder == nullptr,
                   "request already has a responder");
        responder = r;
        tag = t;
    }

    /**
     * Install bookkeeping that must run *before* the primary
     * responder at completion (L1 acquire-invalidate). One slot:
     * at most one device may chain per trip.
     */
    void
    chainResponder(MemResponder *r, std::uint64_t t = 0)
    {
        ifp_assert(chained == nullptr,
                   "request already has a chained responder");
        chained = r;
        chainTag = t;
    }

    /**
     * Fire the completion callbacks: the chained slot first, then the
     * primary responder. Both slots are cleared before the calls, so
     * the invoked-exactly-once contract is structural and a recycled
     * request never re-fires a stale responder.
     */
    void
    respond()
    {
        MemResponder *pre = chained;
        std::uint64_t pre_tag = chainTag;
        chained = nullptr;
        chainTag = 0;
        MemResponder *fin = responder;
        std::uint64_t fin_tag = tag;
        responder = nullptr;
        tag = 0;
        if (pre)
            pre->onMemResponse(*this, pre_tag);
        if (fin)
            fin->onMemResponse(*this, fin_tag);
    }

    bool isUpdate() const
    {
        return op == MemOp::Write || op == MemOp::Atomic;
    }

  private:
    friend class MemRequestPool;
    friend class MemRequestPtr;

    MemResponder *responder = nullptr;
    std::uint64_t tag = 0;
    MemResponder *chained = nullptr;
    std::uint64_t chainTag = 0;

    MemRequestPool *pool = nullptr;
    std::uint32_t refs = 0;
};

/**
 * Slab allocator for MemRequests. Grows in slabs, never shrinks, and
 * recycles through a free-list: after warm-up, allocate() is a pop
 * plus field reset. Destroying the pool with requests still live is a
 * leak of the callback-capture class and fatals.
 */
class MemRequestPool
{
  public:
    explicit MemRequestPool(std::size_t slab_size = 256)
        : slabSize(slab_size)
    {
        ifp_assert(slabSize > 0, "pool slabs need a size");
    }

    ~MemRequestPool()
    {
        ifp_assert(live == 0,
                   "%zu MemRequest(s) leaked: some handle or callback "
                   "outlived its response", live);
    }

    MemRequestPool(const MemRequestPool &) = delete;
    MemRequestPool &operator=(const MemRequestPool &) = delete;

    /** Hand out a fresh request (refcount 1, default fields). */
    MemRequestPtr
    allocate()
    {
        if (freeList.empty())
            grow();
        MemRequest *req = freeList.back();
        freeList.pop_back();
        resetRequest(*req);
        req->refs = 1;
        ++live;
        ++allocations;
        if (live > maxLive)
            maxLive = live;
        return MemRequestPtr(req);
    }

    /** Requests currently out of the pool. */
    std::size_t inUse() const { return live; }

    /** Requests the pool has ever materialized. */
    std::size_t capacity() const { return slabs.size() * slabSize; }

    /** Total allocate() calls (the run's memory-request count). */
    std::uint64_t totalAllocations() const { return allocations; }

    /** High-water mark of simultaneously live requests. */
    std::size_t maxInUse() const { return maxLive; }

  private:
    friend class MemRequestPtr;

    void
    grow()
    {
        slabs.push_back(std::make_unique<MemRequest[]>(slabSize));
        MemRequest *slab = slabs.back().get();
        freeList.reserve(freeList.size() + slabSize);
        for (std::size_t i = 0; i < slabSize; ++i) {
            slab[i].pool = this;
            freeList.push_back(&slab[i]);
        }
    }

    static void
    resetRequest(MemRequest &req)
    {
        req.op = MemOp::Read;
        req.addr = 0;
        req.size = 8;
        req.aop = AtomicOpcode::Load;
        req.operand = 0;
        req.compare = 0;
        req.waiting = false;
        req.expected = 0;
        req.acquire = false;
        req.release = false;
        req.cuId = -1;
        req.wgId = -1;
        req.wfId = -1;
        req.result = 0;
        req.waitFailed = false;
        req.decision = WaitDecision{};
        req.issueTick = 0;
        req.responder = nullptr;
        req.tag = 0;
        req.chained = nullptr;
        req.chainTag = 0;
    }

    void
    recycle(MemRequest *req)
    {
        // May recurse once through the parent chain; depth is bounded
        // by the fill nesting (L1 fill -> L2 fill), not by load.
        req->parent.reset();
        req->responder = nullptr;
        req->chained = nullptr;
        ifp_assert(live > 0, "pool live-count underflow");
        --live;
        freeList.push_back(req);
    }

    std::size_t slabSize;
    std::vector<std::unique_ptr<MemRequest[]>> slabs;
    std::vector<MemRequest *> freeList;
    std::size_t live = 0;
    std::size_t maxLive = 0;
    std::uint64_t allocations = 0;
};

inline void
MemRequestPtr::retain() const noexcept
{
    if (req)
        ++req->refs;
}

inline void
MemRequestPtr::release() const noexcept
{
    if (req && --req->refs == 0)
        req->pool->recycle(req);
}

/**
 * The expected value a waiting atomic compares against: the CAS
 * comparison operand for CAS, the explicit expected operand otherwise.
 */
inline MemValue
waitExpectedOf(const MemRequest &req)
{
    return req.aop == AtomicOpcode::Cas ? req.compare : req.expected;
}

inline MemValue
waitExpectedOf(const MemRequestPtr &req)
{
    return waitExpectedOf(*req);
}

/** Generic interface of anything that accepts memory requests. */
class MemDevice
{
  public:
    virtual ~MemDevice() = default;

    /** Hand over a request; the device responds asynchronously. */
    virtual void access(const MemRequestPtr &req) = 0;
};

} // namespace ifp::mem

#endif // IFP_MEM_REQUEST_HH
