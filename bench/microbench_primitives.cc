/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot primitives:
 * event queue throughput, L2 atomic processing, Bloom filter and
 * condition cache operations, and end-to-end simulated-cycles-per-
 * host-second for a representative workload. These guard the
 * simulator's own performance (host time), not the modeled GPU.
 */

#include <benchmark/benchmark.h>

#include "cp/command_processor.hh"
#include "harness/runner.hh"
#include "mem/dram.hh"
#include "mem/l2_cache.hh"
#include "sim/event_queue.hh"
#include "syncmon/bloom_filter.hh"
#include "syncmon/condition_cache.hh"

namespace {

using namespace ifp;

void
BM_EventQueueScheduleExecute(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < state.range(0); ++i)
            eq.schedule(i + 1, [&sink] { ++sink; });
        eq.simulate();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleExecute)->Arg(1024)->Arg(16384);

void
BM_BackingStoreAtomics(benchmark::State &state)
{
    mem::BackingStore store;
    mem::Addr addr = 0x1000;
    for (auto _ : state) {
        auto r = store.atomic(addr, mem::AtomicOpcode::Add, 1, 0, 8);
        benchmark::DoNotOptimize(r.newValue);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackingStoreAtomics);

void
BM_L2AtomicRoundTrip(benchmark::State &state)
{
    mem::MemRequestPool pool;
    sim::EventQueue eq;
    mem::BackingStore store;
    mem::Dram dram("dram", eq);
    mem::L2Cache l2("l2", eq, mem::L2Config{}, dram, store, pool);
    std::uint64_t ops = 0;
    for (auto _ : state) {
        mem::MemRequestPtr req = pool.allocate();
        req->op = mem::MemOp::Atomic;
        req->aop = mem::AtomicOpcode::Add;
        // Spread across lines to measure pipelined throughput.
        req->addr = 0x10000 + (ops % 64) * 64;
        req->operand = 1;
        l2.access(req);
        eq.simulate();
        ++ops;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2AtomicRoundTrip);

void
BM_BloomFilterObserve(benchmark::State &state)
{
    syncmon::CountingBloomFilter filter(24, 6);
    std::int64_t v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(filter.observe(v++ % 16));
        if (v % 1024 == 0)
            filter.reset();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomFilterObserve);

void
BM_ConditionCacheInsertFindRemove(benchmark::State &state)
{
    syncmon::ConditionCache cc(256, 4);
    std::uint64_t i = 0;
    for (auto _ : state) {
        mem::Addr addr = 0x1000 + (i % 512) * 64;
        auto *e = cc.insert(addr, static_cast<int>(i), false, 0);
        if (e) {
            benchmark::DoNotOptimize(
                cc.find(addr, static_cast<int>(i), false));
            cc.remove(e);
        }
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConditionCacheInsertFindRemove);

void
BM_MonitorLogAppendPop(benchmark::State &state)
{
    mem::BackingStore store;
    cp::MonitorLog log(0x1000, 1024, store);
    for (auto _ : state) {
        log.append({0x2000, 1, 2});
        benchmark::DoNotOptimize(log.pop());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorLogAppendPop);

void
BM_EndToEndSimulatedCyclesPerSecond(benchmark::State &state)
{
    std::uint64_t simulated = 0;
    for (auto _ : state) {
        harness::Experiment exp;
        exp.workload = "SPM_G";
        exp.policy = core::Policy::Awg;
        exp.params = harness::defaultEvalParams();
        exp.params.iters = 2;
        core::RunResult r = harness::runExperiment(exp);
        simulated += r.gpuCycles;
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(simulated), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndSimulatedCyclesPerSecond)
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
