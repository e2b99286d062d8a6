/**
 * @file
 * Tests for the extensions beyond the paper's baseline design:
 * the evict-youngest Monitor Log replacement policy (the fairness
 * study §V.A defers to future work) and the stall-prediction ablation
 * switch.
 */

#include <gtest/gtest.h>

#include "cp/command_processor.hh"
#include "mem/dram.hh"
#include "mem/l2_cache.hh"
#include "test_helpers.hh"

namespace ifp {
namespace {

using syncmon::SpillPolicy;
using syncmon::SyncMonConfig;
using syncmon::SyncMonController;
using syncmon::SyncMonMode;

class StubScheduler : public gpu::WgScheduler
{
  public:
    bool hasStarvedWork() const override { return starved; }
    void resumeWg(int wg_id) override { resumed.push_back(wg_id); }
    unsigned numWaitingWgs() const override { return 0; }

    bool starved = false;
    std::vector<int> resumed;
};

struct SpillFixture : public ::testing::Test
{
    void
    build(SpillPolicy policy)
    {
        SyncMonConfig cfg;
        cfg.sets = 1;
        cfg.ways = 1;  // one hardware condition: conflicts guaranteed
        cfg.spillPolicy = policy;
        dram = std::make_unique<mem::Dram>("dram", eq,
                                           mem::DramConfig{});
        l2 = std::make_unique<mem::L2Cache>("l2", eq,
                                            mem::L2Config{}, *dram,
                                            store, pool);
        dma = std::make_unique<mem::DmaEngine>("dma", eq,
                                               mem::DmaConfig{});
        cp = std::make_unique<cp::CommandProcessor>(
            "cp", eq, cp::CpConfig{}, *dma, store);
        cp->setScheduler(&sched);
        mon = std::make_unique<SyncMonController>("mon", eq,
                                                  SyncMonMode::MonNRAll,
                                                  cfg, *l2, store,
                                                  *cp);
        mon->setScheduler(&sched);
    }

    void
    waitingLoad(mem::Addr addr, mem::MemValue expected, int wg)
    {
        mem::MemRequestPtr req = pool.allocate();
        req->op = mem::MemOp::Atomic;
        req->aop = mem::AtomicOpcode::Load;
        req->addr = addr;
        req->waiting = true;
        req->expected = expected;
        req->wgId = wg;
        l2->access(req);
        settle();
    }

    void
    atomicStore(mem::Addr addr, mem::MemValue value)
    {
        mem::MemRequestPtr req = pool.allocate();
        req->op = mem::MemOp::Atomic;
        req->aop = mem::AtomicOpcode::Store;
        req->addr = addr;
        req->operand = value;
        l2->access(req);
        settle();
    }

    void
    settle(sim::Tick ticks = 100'000'000)
    {
        eq.simulate(eq.curTick() + ticks);
    }

    mem::MemRequestPool pool;
    sim::EventQueue eq;
    mem::BackingStore store;
    std::unique_ptr<mem::Dram> dram;
    std::unique_ptr<mem::L2Cache> l2;
    std::unique_ptr<mem::DmaEngine> dma;
    std::unique_ptr<cp::CommandProcessor> cp;
    std::unique_ptr<SyncMonController> mon;
    StubScheduler sched;
};

TEST_F(SpillFixture, SpillNewKeepsTheOlderConditionInHardware)
{
    build(SpillPolicy::SpillNew);
    waitingLoad(0x1000, 7, 1);  // older: in hardware
    waitingLoad(0x2000, 8, 2);  // conflicts: spilled to the log
    EXPECT_GE(cp->monitorLog().totalAppends(), 1u);
    // The hardware-monitored (older) condition resumes instantly.
    atomicStore(0x1000, 7);
    ASSERT_GE(sched.resumed.size(), 1u);
    EXPECT_EQ(sched.resumed[0], 1);
}

TEST_F(SpillFixture, EvictYoungestDemotesTheNewerCondition)
{
    build(SpillPolicy::EvictYoungest);
    waitingLoad(0x1000, 7, 1);
    waitingLoad(0x2000, 8, 2);  // conflicts: resident is demoted
    waitingLoad(0x3000, 9, 3);  // conflicts again
    // With a single way the youngest resident is always the previous
    // newcomer, so each conflict demotes it and the arriving
    // condition takes the hardware slot (with more ways, older
    // conditions survive and only the youngest is demoted).
    EXPECT_GE(mon->stats().scalar("evictionsToLog").value(), 2.0);
    // All three conditions still fire (hardware or CP-checked).
    atomicStore(0x1000, 7);
    atomicStore(0x2000, 8);
    atomicStore(0x3000, 9);
    settle();
    std::vector<int> resumed = sched.resumed;
    std::sort(resumed.begin(), resumed.end());
    EXPECT_EQ(resumed, (std::vector<int>{1, 2, 3}));
}

TEST_F(SpillFixture, EvictYoungestFallsBackWhenLogIsFull)
{
    SyncMonConfig cfg;
    cfg.sets = 1;
    cfg.ways = 1;
    cfg.spillPolicy = SpillPolicy::EvictYoungest;
    cp::CpConfig cp_cfg;
    cp_cfg.monitorLogCapacity = 1;
    dram = std::make_unique<mem::Dram>("dram", eq, mem::DramConfig{});
    l2 = std::make_unique<mem::L2Cache>("l2", eq, mem::L2Config{},
                                        *dram, store, pool);
    dma = std::make_unique<mem::DmaEngine>("dma", eq,
                                           mem::DmaConfig{});
    cp = std::make_unique<cp::CommandProcessor>("cp", eq, cp_cfg,
                                                *dma, store);
    cp->setScheduler(&sched);
    mon = std::make_unique<SyncMonController>(
        "mon", eq, SyncMonMode::MonNRAll, cfg, *l2, store, *cp);
    mon->setScheduler(&sched);

    waitingLoad(0x1000, 7, 1);
    waitingLoad(0x2000, 8, 2);
    waitingLoad(0x3000, 9, 3);
    // No crash, registrations accounted, and at least one Mesa retry
    // or spill happened; the system stays functional.
    atomicStore(0x1000, 7);
    settle();
    EXPECT_FALSE(sched.resumed.empty());
}

TEST(StallPredictionKnob, DisablingItSwitchesImmediately)
{
    harness::Experiment exp;
    exp.workload = "TB_LG";
    exp.policy = core::Policy::Awg;
    exp.params = test::smallParams();
    exp.params.iters = 12;
    exp.params.wgsPerGroup = 2;  // capacity 16 = G: truly oversub
    exp.runCfg.faultPlan = core::FaultPlan::cuLoss(5);

    exp.runCfg.policy.syncmon.stallPredictionEnabled = true;
    auto with = harness::runExperiment(exp);
    exp.runCfg.policy.syncmon.stallPredictionEnabled = false;
    auto without = harness::runExperiment(exp);

    ASSERT_TRUE(with.completed);
    ASSERT_TRUE(without.completed);
    // Without the stall window, every failed wait under starvation
    // pays a context switch: strictly more switching traffic.
    EXPECT_GT(without.contextSaves, with.contextSaves);
}

TEST(SpillPolicyEndToEnd, BothPoliciesCompleteWithTinyHardware)
{
    for (SpillPolicy policy :
         {SpillPolicy::SpillNew, SpillPolicy::EvictYoungest}) {
        harness::Experiment exp;
        exp.workload = "FAM_G";
        exp.policy = core::Policy::Awg;
        exp.params = test::smallParams();
        exp.runCfg.policy.syncmon.sets = 1;
        exp.runCfg.policy.syncmon.ways = 2;
        exp.runCfg.policy.syncmon.spillPolicy = policy;
        auto result = harness::runExperiment(exp);
        EXPECT_TRUE(result.completed);
        EXPECT_TRUE(result.validated) << result.validationError;
        EXPECT_GT(result.spills, 0u);
    }
}

} // anonymous namespace
} // namespace ifp
