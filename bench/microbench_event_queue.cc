/**
 * @file
 * Microbenchmarks of the EventQueue hot path: one-shot lambda
 * scheduling (the queue's free-list recycling vs the legacy
 * allocate-per-schedule pattern), raw schedule/step on external
 * events, deschedule/reschedule churn, and fig14's mix of delays with
 * and without delays beyond the queue's timing wheel.
 * These quantify the events/sec the simulator core sustains — the
 * figure every sweep's runtime is built on.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace {

using namespace ifp;

/**
 * One-shot lambdas through the queue-owned free-list path: after the
 * first wave, every schedule(Tick, fn) re-arms a recycled event
 * instead of allocating.
 */
void
BM_OneShotFreeList(benchmark::State &state)
{
    sim::EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const sim::Tick start = eq.curTick();
        for (int i = 0; i < state.range(0); ++i)
            eq.schedule(start + i + 1, [&sink] { ++sink; });
        eq.simulate();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["pool_events"] =
        static_cast<double>(eq.ownedPoolSize());
}
BENCHMARK(BM_OneShotFreeList)->Arg(1024)->Arg(16384);

/**
 * The legacy pattern this PR removed: a fresh heap-allocated
 * LambdaEvent (and its std::function) per one-shot, swept after the
 * wave. Kept here as the before/after baseline for EXPERIMENTS.md.
 */
void
BM_OneShotHeapAlloc(benchmark::State &state)
{
    sim::EventQueue eq;
    std::uint64_t sink = 0;
    std::vector<std::unique_ptr<sim::LambdaEvent>> owned;
    for (auto _ : state) {
        const sim::Tick start = eq.curTick();
        for (int i = 0; i < state.range(0); ++i) {
            owned.push_back(std::make_unique<sim::LambdaEvent>(
                [&sink] { ++sink; }));
            eq.schedule(owned.back().get(), start + i + 1);
        }
        eq.simulate();
        owned.clear();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OneShotHeapAlloc)->Arg(1024)->Arg(16384);

class NullEvent : public sim::Event
{
  public:
    void process() override {}
};

/** Raw schedule + step of externally-owned events (no allocation). */
void
BM_ScheduleStep(benchmark::State &state)
{
    sim::EventQueue eq;
    NullEvent ev;
    for (auto _ : state) {
        eq.schedule(&ev, eq.curTick() + 1);
        eq.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleStep);

/** Schedule/deschedule churn: the cancel path of every squash. */
void
BM_ScheduleDeschedule(benchmark::State &state)
{
    sim::EventQueue eq;
    NullEvent ev;
    std::uint64_t n = 0;
    for (auto _ : state) {
        eq.schedule(&ev, eq.curTick() + 1);
        eq.deschedule(&ev);
        // A no-op on today's queue, kept so that numbers taken before
        // it (when this drained stale heap entries) time the same loop.
        if ((++n & 1023u) == 0)
            eq.simulate();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleDeschedule);

/** Reschedule: the wait/resume pattern the policies lean on. */
void
BM_Reschedule(benchmark::State &state)
{
    sim::EventQueue eq;
    NullEvent ev;
    std::uint64_t n = 0;
    for (auto _ : state) {
        eq.reschedule(&ev, eq.curTick() + 1 + (n & 7u));
        if ((++n & 1023u) == 0)
            eq.simulate();
    }
    // Fire the final occurrence so 'ev' is unscheduled at destruction.
    eq.simulate();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Reschedule);

/**
 * A CU tick: re-armed one GPU cycle ahead each time it fires, and
 * every so often issuing a one-shot at +4 cycles (an L1 bypass) or
 * +50 cycles (an L2 round trip). With @p far, it also issues
 * sleep-like one-shots at +1,024 cycles and timeout-like ones at
 * +20,000 cycles, past the queue's 262-cycle wheel.
 */
class TickLike : public sim::Event
{
  public:
    TickLike(sim::EventQueue &eq, std::uint64_t &sink, bool far)
        : eq(eq), sink(sink), far(far)
    {}

    void
    process() override
    {
        constexpr sim::Tick cycle = 500;  // 2 GHz
        const sim::Tick now = eq.curTick();
        eq.schedule(this, now + cycle);
        ++fired;
        if (fired % 8 == 0)
            eq.schedule(now + 4 * cycle, [this] { ++sink; });
        if (fired % 10 == 0)
            eq.schedule(now + 50 * cycle, [this] { ++sink; });
        if (far && fired % 32 == 0)
            eq.schedule(now + 1'024 * cycle, [this] { ++sink; });
        if (far && fired % 256 == 0)
            eq.schedule(now + 20'000 * cycle, [this] { ++sink; });
    }

  private:
    sim::EventQueue &eq;
    std::uint64_t &sink;
    const bool far;
    std::uint64_t fired = 0;
};

/** Step six TickLike members in their steady state. */
void
runTickMix(benchmark::State &state, bool far)
{
    sim::EventQueue eq;
    std::uint64_t sink = 0;
    std::vector<std::unique_ptr<TickLike>> ticks;
    for (int i = 0; i < 6; ++i) {
        ticks.push_back(std::make_unique<TickLike>(eq, sink, far));
        eq.schedule(ticks.back().get(), 500);
    }
    // Reach the steady state: past the longest delay when far.
    for (int i = 0; i < (far ? 200'000 : 10'000); ++i)
        eq.step();
    for (auto _ : state)
        eq.step();
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
    state.counters["pending"] = static_cast<double>(eq.size());
    eq.clear();  // the ticks die scheduled otherwise
}

/**
 * fig14's event mix: six member events re-armed one cycle ahead plus
 * their one-shots at +4 and +50 cycles, about 40 entries pending in
 * steady state. One item is one executed event.
 */
void
BM_MixedDelays(benchmark::State &state)
{
    runTickMix(state, false);
}
BENCHMARK(BM_MixedDelays);

/**
 * The same mix plus sleep- and timeout-like delays beyond the wheel's
 * span: a few hundred events wait in the far heap, and each reaches
 * its bucket through a migration.
 */
void
BM_FarDelays(benchmark::State &state)
{
    runTickMix(state, true);
}
BENCHMARK(BM_FarDelays);

} // anonymous namespace

BENCHMARK_MAIN();
