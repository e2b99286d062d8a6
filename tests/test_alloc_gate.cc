/**
 * @file
 * The zero-steady-state-allocation gate (own binary: it replaces the
 * global operator new/delete with counting versions, which must not
 * leak into the main test suite).
 *
 * The pooled-request overhaul promises that the warmed-up
 * CU-facing round trip — L1 hit, L1-bypassed atomic at the L2, an
 * acquire atomic whose response flash-invalidates the L1, and the
 * event-queue one-shots that carry them — touches the heap not at
 * all: requests come from the MemRequestPool, completions go through
 * typed responders, events recycle through the queue's free-list,
 * device queues are RingQueues, and an event description is a string
 * literal, so re-arming a one-shot copies a pointer, not a string.
 * These tests pin that property exactly, so any future change that
 * sneaks a per-request allocation back in fails here instead of
 * showing up as a slow bench three PRs later.
 *
 * Cold paths (first touch of a line, MSHR creation, pool/slab growth)
 * are warm-up by definition and excluded by design.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "mem/backing_store.hh"
#include "mem/dram.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"
#include "sim/event_queue.hh"

namespace {

std::atomic<std::uint64_t> g_newCalls{0};

std::uint64_t
allocCount()
{
    return g_newCalls.load(std::memory_order_relaxed);
}

} // anonymous namespace

void *
operator new(std::size_t size)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    std::size_t al = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(al, (size + al - 1) / al * al))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ifp {
namespace {

/** The CU-facing memory stack, as in bench/microbench_mem_path.cc. */
struct MemPath : mem::MemResponder
{
    mem::MemRequestPool pool;
    sim::EventQueue eq;
    mem::BackingStore store;
    mem::Dram dram{"dram", eq, mem::DramConfig{}};
    mem::L2Cache l2{"l2", eq, mem::L2Config{}, dram, store, pool};
    mem::L1Cache l1{"cu0.l1", eq, mem::L1Config{}, l2, pool};

    std::uint64_t completed = 0;

    void
    onMemResponse(mem::MemRequest &, std::uint64_t) override
    {
        ++completed;
    }

    void
    issueRead(mem::Addr addr)
    {
        mem::MemRequestPtr req = pool.allocate();
        req->op = mem::MemOp::Read;
        req->addr = addr;
        req->setResponder(this);
        l1.access(req);
    }

    void
    issueAtomic(mem::Addr addr, bool acquire = false)
    {
        mem::MemRequestPtr req = pool.allocate();
        req->op = mem::MemOp::Atomic;
        req->aop = mem::AtomicOpcode::Add;
        req->addr = addr;
        req->operand = 1;
        req->acquire = acquire;
        req->setResponder(this);
        l1.access(req);
    }

    /** One warm-up/measurement round: hits + atomics over 64 lines. */
    void
    round()
    {
        for (int i = 0; i < 64; ++i)
            issueRead(0x4000);
        for (int i = 0; i < 64; ++i)
            issueAtomic(0x2000 + (i % 64) * 64);
        eq.simulate();
    }

    /**
     * Acquire atomics only: each response runs the L1's AcquireHook,
     * which flash-invalidates the tags. No reads here — a flash turns
     * the next read into an L1 miss, and a miss creates an MSHR entry,
     * which allocates by design.
     */
    void
    acquireRound()
    {
        for (int i = 0; i < 64; ++i)
            issueAtomic(0x2000 + i * 64, /*acquire=*/true);
        eq.simulate();
    }
};

TEST(AllocGate, WarmMemoryRoundTripAllocatesNothing)
{
    MemPath path;
    // Two warm-up rounds: fill the touched lines, size the pool, the
    // event free-list and heap, the bank/channel rings, and the
    // per-line RMW turnaround map.
    path.round();
    path.round();
    const std::uint64_t warm_completed = path.completed;

    const std::uint64_t before = allocCount();
    for (int i = 0; i < 10; ++i)
        path.round();
    const std::uint64_t after = allocCount();

    EXPECT_EQ(after - before, 0u)
        << "the warmed L1-hit + L2-atomic round trip touched the heap";
    EXPECT_EQ(path.completed, warm_completed + 10 * 128);
}

TEST(AllocGate, WarmAcquireFlashesAllocateNothing)
{
    MemPath path;
    path.round();  // fill lines, so the first flashes drop something
    path.acquireRound();
    path.acquireRound();
    const std::uint64_t warm_completed = path.completed;
    const double warm_flashes =
        path.l1.stats().scalar("invalidations").value();

    const std::uint64_t before = allocCount();
    for (int i = 0; i < 10; ++i)
        path.acquireRound();
    const std::uint64_t after = allocCount();

    EXPECT_EQ(after - before, 0u)
        << "the warmed acquire atomic + L1 flash touched the heap";
    EXPECT_EQ(path.completed, warm_completed + 10 * 64);
    EXPECT_EQ(path.l1.stats().scalar("invalidations").value(),
              warm_flashes + 10 * 64);
}

TEST(AllocGate, RequestLifecycleAllocatesNothingAfterWarmup)
{
    mem::MemRequestPool pool;
    { mem::MemRequestPtr warm = pool.allocate(); }

    const std::uint64_t before = allocCount();
    for (int i = 0; i < 10'000; ++i) {
        mem::MemRequestPtr req = pool.allocate();
        req->respond();
    }
    const std::uint64_t after = allocCount();
    EXPECT_EQ(after - before, 0u)
        << "pool allocate/respond/release touched the heap";
}

TEST(AllocGate, EventQueueOneShotsAllocateNothingAfterWarmup)
{
    sim::EventQueue eq;
    int hits = 0;
    // Warm-up wave sizes the owned pool, free-list, and heap vector.
    for (int i = 0; i < 256; ++i)
        eq.schedule(eq.curTick() + i + 1, [&hits] { ++hits; },
                    "cu0.l1.hit");
    eq.simulate();

    const std::uint64_t before = allocCount();
    for (int wave = 0; wave < 10; ++wave) {
        for (int i = 0; i < 256; ++i)
            eq.schedule(eq.curTick() + i + 1, [&hits] { ++hits; },
                        "cu0.l1.hit");
        eq.simulate();
    }
    const std::uint64_t after = allocCount();
    EXPECT_EQ(after - before, 0u)
        << "recycled one-shot scheduling touched the heap";
    EXPECT_EQ(hits, 256 * 11);
}

TEST(AllocGate, SquashedOneShotsRecycleWithoutTheHeap)
{
    sim::EventQueue eq;
    int fired = 0;
    // Warm-up: one schedule/squash/replace cycle. Draining fully each
    // cycle also clears the squashed occurrence's stale heap entry,
    // so the heap never grows across cycles.
    sim::Event *warm = eq.schedule(eq.curTick() + 100, [] {});
    eq.deschedule(warm);
    eq.schedule(eq.curTick() + 1, [&fired] { ++fired; });
    eq.simulate();

    const std::uint64_t before = allocCount();
    for (int i = 0; i < 1000; ++i) {
        sim::Event *ev = eq.schedule(eq.curTick() + 100, [] {});
        eq.deschedule(ev);
        eq.schedule(eq.curTick() + 1, [&fired] { ++fired; });
        eq.simulate();
    }
    const std::uint64_t after = allocCount();
    EXPECT_EQ(after - before, 0u)
        << "squash/recycle of owned one-shots touched the heap";
    EXPECT_EQ(fired, 1001);
}

} // anonymous namespace
} // namespace ifp
