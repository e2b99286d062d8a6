/**
 * @file
 * Microbenchmarks of the memory-request path: request lifecycle cost
 * and the CU-visible L1/L2/DRAM round trips. These guard the host
 * cost of the simulator's hottest object — the MemRequest — and of
 * the devices it flows through (requests/s, not simulated cycles).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "mem/backing_store.hh"
#include "mem/dram.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"
#include "sim/event_queue.hh"

namespace {

using namespace ifp;

/** The CU-facing memory stack: L1 -> banked L2 -> DRAM. */
struct MemPath : mem::MemResponder
{
    mem::MemRequestPool pool;
    sim::EventQueue eq;
    mem::BackingStore store;
    mem::Dram dram{"dram", eq};
    mem::L2Cache l2{"l2", eq, mem::L2Config{}, dram, store, pool};
    mem::L1Cache l1{"cu0.l1", eq, l2, pool};

    std::uint64_t completed = 0;

    void
    onMemResponse(mem::MemRequest &, std::uint64_t) override
    {
        ++completed;
    }

    mem::MemRequestPtr
    makeRequest(mem::MemOp op, mem::Addr addr)
    {
        mem::MemRequestPtr req = pool.allocate();
        req->op = op;
        req->addr = addr;
        req->setResponder(this);
        return req;
    }
};

constexpr int batchSize = 64;

/** Pure request lifecycle: allocate, arm the callback, respond. */
void
BM_RequestLifecycle(benchmark::State &state)
{
    MemPath path;
    for (auto _ : state) {
        auto req = path.makeRequest(mem::MemOp::Read, 0x1000);
        req->respond();
        benchmark::DoNotOptimize(path.completed);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestLifecycle);

/** Loads hitting a warm L1 line: the cheapest full round trip. */
void
BM_L1HitLoads(benchmark::State &state)
{
    MemPath path;
    // Warm the line so the timed loop sees only hits.
    path.l1.access(path.makeRequest(mem::MemOp::Read, 0x4000));
    path.eq.simulate();

    for (auto _ : state) {
        for (int i = 0; i < batchSize; ++i)
            path.l1.access(path.makeRequest(mem::MemOp::Read, 0x4000));
        path.eq.simulate();
    }
    state.SetItemsProcessed(state.iterations() * batchSize);
    benchmark::DoNotOptimize(path.completed);
}
BENCHMARK(BM_L1HitLoads);

/** Streaming loads that miss everywhere: L1 fill + L2 fill + DRAM. */
void
BM_MissFillStream(benchmark::State &state)
{
    MemPath path;
    mem::Addr addr = 0x10'0000;
    for (auto _ : state) {
        for (int i = 0; i < batchSize; ++i) {
            path.l1.access(path.makeRequest(mem::MemOp::Read, addr));
            addr += 64;  // new line every request: always a miss
        }
        path.eq.simulate();
    }
    state.SetItemsProcessed(state.iterations() * batchSize);
    benchmark::DoNotOptimize(path.completed);
}
BENCHMARK(BM_MissFillStream);

/** Atomics bypassing the L1, performed at the L2 bank ALUs. */
void
BM_AtomicRoundTrip(benchmark::State &state)
{
    MemPath path;
    std::uint64_t n = 0;
    for (auto _ : state) {
        for (int i = 0; i < batchSize; ++i) {
            // Spread across lines to measure pipelined throughput.
            auto req = path.makeRequest(mem::MemOp::Atomic,
                                        0x2000 + (n++ % 64) * 64);
            req->aop = mem::AtomicOpcode::Add;
            req->operand = 1;
            path.l1.access(req);
        }
        path.eq.simulate();
    }
    state.SetItemsProcessed(state.iterations() * batchSize);
    benchmark::DoNotOptimize(path.completed);
}
BENCHMARK(BM_AtomicRoundTrip);

} // anonymous namespace

BENCHMARK_MAIN();
