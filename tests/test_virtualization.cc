/**
 * @file
 * Tests for the virtualization interface (Section V.A): undersized
 * SyncMon structures must spill into the Monitor Log, a full log must
 * force Mesa retries, and in every case the kernel still completes
 * and validates — hardware capacity never limits correctness.
 */

#include <gtest/gtest.h>

#include "test_helpers.hh"

namespace ifp {
namespace {

core::RunResult
runWithTinyHardware(const std::string &workload, unsigned sets,
                    unsigned ways, unsigned waiting_list,
                    unsigned log_capacity,
                    core::GpuSystem **out_system = nullptr)
{
    harness::Experiment exp;
    exp.workload = workload;
    exp.policy = core::Policy::Awg;
    exp.params = test::smallParams();
    exp.runCfg.policy.syncmon.sets = sets;
    exp.runCfg.policy.syncmon.ways = ways;
    exp.runCfg.policy.syncmon.waitingListCapacity = waiting_list;
    exp.runCfg.cp.monitorLogCapacity = log_capacity;
    (void)out_system;
    return harness::runExperiment(exp);
}

TEST(Virtualization, FullSizeHardwareDoesNotSpill)
{
    harness::Experiment exp;
    exp.workload = "FAM_G";
    exp.policy = core::Policy::Awg;
    exp.params = test::smallParams();
    auto result = harness::runExperiment(exp);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.spills, 0u);
    EXPECT_LE(result.maxConditions, 1024u);
    EXPECT_LE(result.maxWaiters, 512u);
}

TEST(Virtualization, TinyConditionCacheSpillsButCompletes)
{
    // One condition in hardware; everything else virtualizes.
    auto result = runWithTinyHardware("FAM_G", 1, 1, 512, 4096);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.validated) << result.validationError;
    EXPECT_GT(result.spills, 0u);
    EXPECT_GT(result.maxLogEntries, 0u);
}

TEST(Virtualization, TinyWaitingListSpillsButCompletes)
{
    auto result = runWithTinyHardware("SPM_G", 256, 4, 2, 4096);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.validated) << result.validationError;
    EXPECT_GT(result.spills, 0u);
    EXPECT_LE(result.maxWaiters, 2u);
}

TEST(Virtualization, FullMonitorLogForcesMesaRetries)
{
    // No hardware conditions AND a nearly-empty log: waiting atomics
    // must sometimes fail without entering a waiting state and retry.
    auto result = runWithTinyHardware("SPM_G", 1, 1, 2, 2);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.validated) << result.validationError;
    EXPECT_GT(result.logFullRetries, 0u);
}

TEST(Virtualization, BarrierSurvivesTinyHardware)
{
    auto result = runWithTinyHardware("TB_LG", 1, 2, 4, 8);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.validated) << result.validationError;
}

TEST(Virtualization, OversubscribedRunSurvivesTinyHardware)
{
    harness::Experiment exp;
    exp.workload = "FAM_G";
    exp.policy = core::Policy::Awg;
    exp.params = test::smallParams();
    exp.params.iters = 12;
    exp.runCfg.faultPlan = core::FaultPlan::cuLoss(5);
    exp.runCfg.policy.syncmon.sets = 1;
    exp.runCfg.policy.syncmon.ways = 2;
    exp.runCfg.policy.syncmon.waitingListCapacity = 4;
    exp.runCfg.cp.monitorLogCapacity = 64;
    auto result = harness::runExperiment(exp);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.validated) << result.validationError;
    EXPECT_GT(result.spills, 0u);
}

} // anonymous namespace
} // namespace ifp
