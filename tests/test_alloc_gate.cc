/**
 * @file
 * The zero-steady-state-allocation gate (own binary: it replaces the
 * global operator new/delete with counting versions, which must not
 * leak into the main test suite).
 *
 * The pooled-request overhaul promises that the warmed-up
 * CU-facing round trip — L1 hit, L1 miss merged in an MSHR,
 * L1-bypassed atomic at the L2, an acquire atomic whose response
 * flash-invalidates the L1, and the event-queue one-shots that carry
 * them — touches the heap not at all: requests come from the
 * MemRequestPool, completions go through typed responders, events
 * recycle through the queue's free-list and link into its wheel
 * intrusively, device queues are RingQueues, MSHR slots are reused,
 * and an event description is a string literal, so re-arming a
 * one-shot copies a pointer, not a string. The CU's issue loop, the
 * schedule-oracle path included, is held to the same rule. These
 * tests pin that property exactly, so any future change that sneaks
 * a per-request allocation back in fails here instead of showing up
 * as a slow bench three PRs later.
 *
 * Cold paths (first touch of a line, a new MSHR slot, pool/slab
 * growth) are warm-up by definition and excluded by design.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/gpu_system.hh"
#include "isa/builder.hh"
#include "mem/backing_store.hh"
#include "mem/dram.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"
#include "sim/event_queue.hh"
#include "sim/sched_oracle.hh"

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
    mem::Dram dram{"dram", eq};
    mem::L2Cache l2{"l2", eq, mem::L2Config{}, dram, store, pool};
    mem::L1Cache l1{"cu0.l1", eq, l2, pool};

    std::uint64_t completed = 0;

    /// @name Merge order of acquireRound()'s reads
    /// @{
    static constexpr mem::Addr missBase = 0x8000;
    /** Per line: offset + 1 of the last read answered, 0 for none. */
    std::array<mem::Addr, 8> lastAnswered{};
    bool readsInOrder = true;
    /// @}

    void
    onMemResponse(mem::MemRequest &req, std::uint64_t) override
    {
        ++completed;
        if (req.op == mem::MemOp::Read && req.addr >= missBase) {
            mem::Addr &last = lastAnswered[(req.addr - missBase) / 64];
            readsInOrder = readsInOrder && req.addr % 64 + 1 > last;
            last = req.addr % 64 + 1;
        }
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
     * Acquire atomics, each of whose responses runs the L1's
     * AcquireHook (a flash of the tags), then reads of 8 flashed
     * lines: every read misses, and the 8 reads of a line merge into
     * its MSHR and are answered in the order they arrived (rising
     * offsets within the line).
     */
    void
    acquireRound()
    {
        for (int i = 0; i < 64; ++i)
            issueAtomic(0x2000 + i * 64, /*acquire=*/true);
        eq.simulate();
        lastAnswered.fill(0);
        for (int i = 0; i < 64; ++i)
            issueRead(missBase + (i % 8) * 64 + (i / 8) * 8);
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
    const double warm_misses = path.l1.stats().scalar("misses").value();

    const std::uint64_t before = allocCount();
    for (int i = 0; i < 10; ++i)
        path.acquireRound();
    const std::uint64_t after = allocCount();

    EXPECT_EQ(after - before, 0u)
        << "the warmed acquire atomic + L1 flash + MSHR-merged read "
           "miss touched the heap";
    EXPECT_EQ(path.completed, warm_completed + 10 * 128);
    EXPECT_EQ(path.l1.stats().scalar("invalidations").value(),
              warm_flashes + 10 * 64);
    EXPECT_EQ(path.l1.stats().scalar("misses").value(),
              warm_misses + 10 * 64);
    EXPECT_TRUE(path.readsInOrder)
        << "merged reads were not answered in arrival order";
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

/** A CU-tick-like member event, re-armed one GPU cycle ahead. */
struct Ticker : sim::Event
{
    explicit Ticker(sim::EventQueue &eq) : eq(eq) {}

    void
    process() override
    {
        if (--left > 0)
            eq.schedule(this, eq.curTick() + 500);
    }

    sim::EventQueue &eq;
    int left = 0;
};

TEST(AllocGate, FarEventsMigrateWithoutTheHeap)
{
    // Sleep- and timeout-like one-shots due past the wheel's span wait
    // in the far heap and migrate onto the wheel, among a ticking
    // member's re-arms, when time reaches them. The far heap's vector
    // grows only to its high-water mark, so after one warm round
    // nothing allocates.
    sim::EventQueue eq;
    Ticker ticker(eq);
    constexpr int numFar = 64;
    int fired = 0;
    auto round = [&] {
        const sim::Tick now = eq.curTick();
        ticker.left = 1'500;
        eq.schedule(&ticker, now + 500);
        for (int i = 0; i < numFar; ++i) {
            eq.schedule(now + 200'000 + 7'919 * i, [&fired] { ++fired; },
                        "cu0.sleep");
        }
        eq.simulate();
    };
    round();

    const std::uint64_t before = allocCount();
    for (int r = 0; r < 10; ++r)
        round();
    EXPECT_EQ(allocCount() - before, 0u)
        << "far-event schedule or migration touched the heap";
    EXPECT_EQ(fired, 11 * numFar);
    EXPECT_TRUE(eq.empty());
}

/** Rotates through the candidates, so every issue asks the oracle. */
struct RotatingOracle : sim::SchedOracle
{
    unsigned
    choose(sim::ChoicePoint, unsigned n, unsigned) override
    {
        return static_cast<unsigned>(calls++ % n);
    }

    std::uint64_t calls = 0;
};

TEST(AllocGate, WarmCuIssueUnderAnOracleAllocatesNothing)
{
    // explore's configuration: a 1-CU machine whose SIMD arbitration
    // goes through a SchedOracle. Two WGs of four wavefronts put four
    // on each SIMD, all spinning on an L1-hit load, an ALU op and a
    // countdown, so most issues choose among several candidates.
    RotatingOracle oracle;
    core::RunConfig cfg;
    cfg.gpu.numCus = 1;
    cfg.schedOracle = &oracle;
    core::GpuSystem sys(cfg);
    const mem::Addr flag = sys.allocate(64);

    isa::KernelBuilder b;
    b.movi(16, 1'000'000);
    isa::Label loop = b.here();
    b.ld(17, isa::rArg0);
    b.valu(2);
    b.subi(16, 16, 1);
    b.bnz(16, loop);
    b.halt();
    isa::Kernel kernel;
    kernel.name = "spin";
    kernel.code = b.build();
    kernel.numWgs = 2;
    kernel.wiPerWg = 256;
    kernel.ldsBytes = 1024;
    kernel.maxWgsPerCu = 8;
    kernel.args = {static_cast<mem::MemValue>(flag)};
    sys.enqueueKernel(kernel);

    sim::EventQueue &eq = sys.eventq();
    for (int i = 0; i < 20'000; ++i)
        ASSERT_TRUE(eq.step());
    const std::uint64_t warm_calls = oracle.calls;

    const std::uint64_t before = allocCount();
    for (int i = 0; i < 50'000; ++i)
        eq.step();
    const std::uint64_t after = allocCount();

    EXPECT_EQ(after - before, 0u)
        << "the warmed CU issue loop under an oracle touched the heap";
    EXPECT_GT(oracle.calls, warm_calls + 1000);
}

TEST(AllocGate, WarmCountdownCoastAllocatesNothing)
{
    // The stock schedule's countdown coast: each window's decision,
    // closed-form retirement and move of the peers' ticks reuse what
    // the queue and the CUs already hold. Two CUs, each counting down
    // on both SIMDs between L1-hit loads.
    core::RunConfig cfg;
    cfg.gpu.numCus = 2;
    core::GpuSystem sys(cfg);
    const mem::Addr flag = sys.allocate(64);

    isa::KernelBuilder b;
    b.movi(17, 1'000'000);
    isa::Label loop = b.here();
    b.ld(18, isa::rArg0);
    b.movi(16, 300);
    isa::Label delay = b.here();
    b.subi(16, 16, 1);
    b.bnz(16, delay);
    b.subi(17, 17, 1);
    b.bnz(17, loop);
    b.halt();
    isa::Kernel kernel;
    kernel.name = "delay";
    kernel.code = b.build();
    kernel.numWgs = 4;
    kernel.wiPerWg = 128;
    kernel.ldsBytes = 1024;
    kernel.maxWgsPerCu = 8;
    kernel.args = {static_cast<mem::MemValue>(flag)};
    sys.enqueueKernel(kernel);

    sim::EventQueue &eq = sys.eventq();
    for (int i = 0; i < 5'000; ++i)
        ASSERT_TRUE(eq.step());
    const sim::Tick warm_tick = eq.curTick();

    const std::uint64_t before = allocCount();
    for (int i = 0; i < 20'000; ++i)
        eq.step();
    const std::uint64_t after = allocCount();

    EXPECT_EQ(after - before, 0u)
        << "the warmed countdown coast touched the heap";
    // Per cycle, 20,000 steps would cover at most 20,000 cycles of
    // two ticking CUs; coasting covers many more.
    EXPECT_GT(eq.curTick() - warm_tick, 20'000 * sim::gpuClockPeriod);
}

} // anonymous namespace
} // namespace ifp
