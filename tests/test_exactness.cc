/**
 * @file
 * Exactness of the countdown coast (ComputeUnit::coast) and of the
 * event-queue move it uses. Own binary, label `exactness`: run it
 * before tools/byte_identity.sh for any change to CU issue or the
 * event queue.
 *
 * A stock run coasts through every delay loop it can; the same run
 * under explore::PreferredOracle takes the stock pick at every choice
 * point but never coasts (an oracle turns it off), so it is the
 * per-cycle reference. Both must agree on everything modelled.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "core/gpu_system.hh"
#include "explore/explore.hh"
#include "harness/runner.hh"
#include "isa/builder.hh"
#include "sim/event_queue.hh"

namespace ifp {
namespace {

using core::Policy;

struct Outcome
{
    core::RunResult result;
    std::string stats;
    /** Each WG's lifetime ticks by stall reason, in WG order. */
    std::vector<std::array<sim::Tick, sim::numStallReasons>> wgStalls;
};

/** Record what a finished run left in @p sys. */
void
record(core::GpuSystem &sys, Outcome &out)
{
    std::ostringstream os;
    sys.dumpStats(os);
    out.stats = os.str();
    for (const auto &wg : sys.dispatcher().workgroups())
        out.wgStalls.push_back(wg->reasonTicks);
}

Outcome
runCell(const std::string &workload, Policy policy, bool fig15,
        sim::SchedOracle *oracle)
{
    harness::Experiment exp;
    exp.workload = workload;
    exp.policy = policy;
    exp.params = harness::defaultEvalParams();
    if (fig15) {
        exp.params.iters = 16;
        exp.runCfg.faultPlan = core::FaultPlan::cuLoss(10);
    }
    exp.runCfg.schedOracle = oracle;
    Outcome out;
    out.result = harness::runExperimentWithSystem(
        exp, [&out](core::GpuSystem &sys) { record(sys, out); });
    return out;
}

void
expectSameRun(const Outcome &stock, const Outcome &steered,
              const std::string &what)
{
    EXPECT_EQ(stock.result.verdict, steered.result.verdict) << what;
    EXPECT_EQ(stock.result.gpuCycles, steered.result.gpuCycles) << what;
    EXPECT_EQ(stock.result.instructions, steered.result.instructions)
        << what;
    EXPECT_EQ(stock.result.wgCycleBreakdown,
              steered.result.wgCycleBreakdown)
        << what;
    EXPECT_EQ(stock.stats, steered.stats) << what;
    EXPECT_EQ(stock.wgStalls, steered.wgStalls) << what;
}

TEST(Coast, SpmboUnderBaselineMatchesThePerCycleRun)
{
    for (const bool fig15 : {false, true}) {
        for (const std::string workload : {"SPMBO_G", "SPMBO_L"}) {
            const std::string what =
                workload + (fig15 ? " fig15" : " fig14");
            const Outcome stock =
                runCell(workload, Policy::Baseline, fig15, nullptr);
            explore::PreferredOracle oracle;
            const Outcome steered =
                runCell(workload, Policy::Baseline, fig15, &oracle);
            expectSameRun(stock, steered, what);
            if (workload == "SPMBO_G") {
                // A coast that stops firing fails here.
                EXPECT_LE(2 * stock.result.hostEvents,
                          steered.result.hostEvents)
                    << what;
            }
        }
    }
}

TEST(Coast, BarrierSkewMatchesThePerCycleRunUnderEveryFig14Policy)
{
    for (const std::string workload : {"TB_LG", "LFTBEX_LG"}) {
        for (Policy policy :
             {Policy::Baseline, Policy::Sleep, Policy::Timeout,
              Policy::MonNRAll, Policy::MonNROne, Policy::Awg}) {
            const std::string what =
                workload + "/" + core::policyName(policy);
            const Outcome stock =
                runCell(workload, policy, false, nullptr);
            explore::PreferredOracle oracle;
            const Outcome steered =
                runCell(workload, policy, false, &oracle);
            expectSameRun(stock, steered, what);
            // Every cell coasts through its startup skew.
            EXPECT_LT(stock.result.hostEvents, steered.result.hostEvents)
                << what;
        }
    }
}

/**
 * Countdowns at mixed phases: each wavefront enters the loop at its
 * subi or at its bnz, with a counter of @p lowest..lowest+6 (a counter
 * <= 0 at the subi, or < 0 at the bnz, never exits), then loads (an
 * event that ends a window), counts down again from a counter of its
 * own and stores.
 */
isa::Kernel
mixedCountdowns(unsigned wi_per_wg, unsigned num_wgs, std::int64_t lowest,
                mem::Addr buf)
{
    isa::KernelBuilder b;
    b.muli(16, isa::rWgId, 5);
    b.muli(17, isa::rWfId, 3);
    b.add(16, 16, 17);
    b.remi(16, 16, 7);
    b.addi(16, 16, lowest);
    b.add(17, isa::rWgId, isa::rWfId);
    b.andi(17, 17, 1);
    isa::Label at_branch = b.label();
    b.bnz(17, at_branch);
    isa::Label first = b.here();
    b.subi(16, 16, 1);
    b.bind(at_branch);
    b.bnz(16, first);
    b.ld(18, isa::rArg0);
    b.muli(16, isa::rWfId, 13);
    b.addi(16, 16, 40);
    isa::Label second = b.here();
    b.subi(16, 16, 1);
    b.bnz(16, second);
    b.muli(17, isa::rWgId, 64);
    b.muli(18, isa::rWfId, 8);
    b.add(17, 17, 18);
    b.add(17, 17, isa::rArg0);
    b.st(17, isa::rWgId, 8);
    b.halt();
    isa::Kernel kernel;
    kernel.name = "mixed-countdowns";
    kernel.code = b.build();
    kernel.numWgs = num_wgs;
    kernel.wiPerWg = wi_per_wg;
    kernel.ldsBytes = 0;
    kernel.maxWgsPerCu = 8;
    kernel.args = {static_cast<mem::MemValue>(buf)};
    return kernel;
}

Outcome
runMixed(unsigned wi_per_wg, unsigned num_wgs, std::int64_t lowest,
         sim::SchedOracle *oracle)
{
    core::RunConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.policy.policy = Policy::Baseline;
    cfg.deadlockWindowCycles = 20'000;
    cfg.maxCycles = 200'000;
    cfg.schedOracle = oracle;
    core::GpuSystem sys(cfg);
    const mem::Addr buf = sys.allocate(64 * 64);
    Outcome out;
    out.result = sys.run(mixedCountdowns(wi_per_wg, num_wgs, lowest, buf));
    record(sys, out);
    return out;
}

TEST(Coast, MixedPhasesMatchThePerCycleRun)
{
    // 1-4 wavefronts per WG and up to 8 WGs per 2-SIMD CU: 1-4 and
    // more candidates per SIMD. With counters from -1 some never exit
    // and the run ends at its deadlock window; from 1 every one does.
    for (const std::int64_t lowest : {-1, 1}) {
        for (const auto &[wi, wgs] :
             std::vector<std::pair<unsigned, unsigned>>{
                 {64, 1}, {64, 4}, {128, 3}, {192, 2}, {256, 4}}) {
            const std::string what = std::to_string(wi) + "x" +
                                     std::to_string(wgs) + " from " +
                                     std::to_string(lowest);
            const Outcome stock = runMixed(wi, wgs, lowest, nullptr);
            explore::PreferredOracle oracle;
            const Outcome steered = runMixed(wi, wgs, lowest, &oracle);
            expectSameRun(stock, steered, what);
            EXPECT_EQ(stock.result.completed, lowest > 0) << what;
            EXPECT_GT(stock.result.instructions, 0u) << what;
            EXPECT_LT(stock.result.hostEvents, steered.result.hostEvents)
                << what;
        }
    }
}

/** Records the order its instances run in. */
struct Marker : sim::Event
{
    Marker(std::vector<int> &log, int id) : log(log), id(id) {}
    void process() override { log.push_back(id); }

    std::vector<int> &log;
    int id;
};

TEST(EventQueueMove, MovedEventsKeepTheirOrderBehindTheTarget)
{
    sim::EventQueue eq;
    std::vector<int> log;
    Marker first(log, 0), a(log, 1), b(log, 2), c(log, 3), at(log, 4),
        later(log, 5);
    eq.schedule(&first, 1000);
    eq.schedule(&a, 1000);
    eq.schedule(&b, 1000);
    eq.schedule(&at, 5000);
    eq.schedule(&c, 1000);
    eq.schedule(&later, 5500);
    ASSERT_TRUE(eq.step());  // `first`, at 1000
    EXPECT_EQ(eq.dueNow(), 3u);
    EXPECT_EQ(eq.nextAfterNow(), 5000u);
    eq.moveDueNow(5000);
    EXPECT_EQ(eq.dueNow(), 0u);
    EXPECT_EQ(eq.size(), 5u);
    eq.simulate();
    EXPECT_EQ(log, (std::vector<int>{0, 4, 1, 2, 3, 5}));
    EXPECT_EQ(eq.curTick(), 5500u);
}

TEST(EventQueueMove, FarTargetsComeBackInOrder)
{
    // Past the wheel's 131,072-tick span, the moved events wait in the
    // far heap beside an earlier far event at the same tick.
    sim::EventQueue eq;
    std::vector<int> log;
    Marker first(log, 0), a(log, 1), b(log, 2), far(log, 3),
        before(log, 4);
    const sim::Tick target = 1'000'000;
    eq.schedule(&first, 500);
    eq.schedule(&a, 500);
    eq.schedule(&b, 500);
    eq.schedule(&far, target);
    eq.schedule(&before, target - 500);
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(eq.nextAfterNow(), target - 500);
    eq.moveDueNow(target);
    EXPECT_EQ(eq.nextAfterNow(), target - 500);
    eq.simulate();
    EXPECT_EQ(log, (std::vector<int>{0, 4, 3, 1, 2}));
}

TEST(EventQueueMove, LimitIsTheRunningSimulateLimit)
{
    sim::EventQueue eq;
    sim::Tick seen = 0;
    eq.schedule(700, [&] { seen = eq.limit(); });
    EXPECT_EQ(eq.limit(), sim::maxTick);
    eq.simulate(2000);
    EXPECT_EQ(seen, 2000u);
    EXPECT_EQ(eq.limit(), sim::maxTick);
    EXPECT_EQ(eq.nextAfterNow(), sim::maxTick);
}

} // namespace
} // namespace ifp
