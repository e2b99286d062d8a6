/**
 * @file
 * The paper's oversubscribed experiment (Section VI): mid-run loss of
 * a CU. Policies without WG swap-in firmware (Baseline, Sleep) must
 * deadlock; every monitor/timeout policy must recover, complete and
 * still satisfy the workload's semantic validation.
 */

#include <gtest/gtest.h>

#include "test_helpers.hh"

namespace ifp {
namespace {

using core::Policy;

struct OverCase
{
    std::string workload;
    Policy policy;
    bool expectDeadlock;
};

void
PrintTo(const OverCase &c, std::ostream *os)
{
    *os << "workload=" << c.workload << " " << "expectDeadlock=" << c.expectDeadlock << " ";
}


std::string
overName(const ::testing::TestParamInfo<OverCase> &info)
{
    std::string name = info.param.workload + "_" +
                       core::policyName(info.param.policy);
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

class Oversubscribed : public ::testing::TestWithParam<OverCase>
{
};

TEST_P(Oversubscribed, MatchesExpectedOutcome)
{
    const OverCase &c = GetParam();
    core::RunResult result =
        test::runSmall(c.workload, c.policy, /*oversubscribed=*/true);
    if (c.expectDeadlock) {
        EXPECT_TRUE(result.deadlocked)
            << c.workload << "/" << core::policyName(c.policy)
            << " was expected to deadlock but "
            << (result.completed ? "completed" : "timed out");
    } else {
        EXPECT_TRUE(result.completed)
            << c.workload << "/" << core::policyName(c.policy) << ": "
            << result.statusString();
        EXPECT_TRUE(result.validated) << result.validationError;
    }
}

std::vector<OverCase>
overCases()
{
    std::vector<OverCase> cases;
    // A contention-heavy subset keeps the matrix fast while covering
    // mutexes (centralized + decentralized) and both barrier shapes.
    std::vector<std::string> workloads = {"SPM_G", "FAM_G", "SLM_G",
                                          "TB_LG", "LFTB_LG"};
    for (const std::string &w : workloads) {
        cases.push_back({w, Policy::Baseline, true});
        cases.push_back({w, Policy::Sleep, true});
        cases.push_back({w, Policy::Timeout, false});
        cases.push_back({w, Policy::MonNRAll, false});
        cases.push_back({w, Policy::MonNROne, false});
        cases.push_back({w, Policy::Awg, false});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(FigFifteen, Oversubscribed,
                         ::testing::ValuesIn(overCases()), overName);

TEST(OversubscribedDetail, RecoveryUsesContextSwitches)
{
    // Full evaluation geometry: the kernel exactly fills the machine,
    // so after the CU loss it is truly oversubscribed and recovery
    // requires waiting WGs to *voluntarily* yield their resources.
    harness::Experiment exp;
    exp.workload = "FAM_G";
    exp.policy = Policy::Awg;
    exp.params = harness::defaultEvalParams();
    exp.params.iters = 16;
    exp.runCfg.faultPlan = core::FaultPlan::cuLoss(10);
    auto result = harness::runExperiment(exp);
    ASSERT_TRUE(result.completed);
    EXPECT_GT(result.forcedPreemptions, 0u);
    EXPECT_GT(result.contextSaves, result.forcedPreemptions)
        << "recovery requires voluntary context switches too";
    EXPECT_EQ(result.contextSaves, result.contextRestores);
}

TEST(OversubscribedDetail, BaselineStrandsPreemptedWgs)
{
    auto result = test::runSmall("FAM_G", Policy::Baseline, true);
    ASSERT_TRUE(result.deadlocked);
    EXPECT_GT(result.forcedPreemptions, 0u);
    // Pre-emption saved contexts, but nothing ever restored them:
    // current GPUs have no WG-granularity swap-in.
    EXPECT_EQ(result.contextRestores, 0u);
}

TEST(OversubscribedDetail, WaitTimeDominatesWhenOversubscribed)
{
    auto normal = test::runSmall("FAM_G", Policy::Awg, false);
    auto over = test::runSmall("FAM_G", Policy::Awg, true);
    ASSERT_TRUE(normal.completed);
    ASSERT_TRUE(over.completed);
    // Losing an eighth of the machine mid-run cannot make it faster.
    EXPECT_GT(over.gpuCycles, normal.gpuCycles);
}

TEST(OversubscribedDetail, AwgBeatsTimeoutOnCentralizedLocks)
{
    auto timeout = test::runSmall("FAM_G", Policy::Timeout, true);
    auto awg = test::runSmall("FAM_G", Policy::Awg, true);
    ASSERT_TRUE(timeout.completed);
    ASSERT_TRUE(awg.completed);
    EXPECT_LT(awg.gpuCycles, timeout.gpuCycles);
}

TEST(DynamicResources, RestoredCuSpeedsUpRecovery)
{
    // Figure 2's scenario: resources vary across time slices. The CU
    // comes back mid-run; AWG should finish faster than when it is
    // gone for good.
    auto run = [](std::uint64_t restore_us) {
        harness::Experiment exp;
        exp.workload = "FAM_G";
        exp.policy = Policy::Awg;
        exp.params = harness::defaultEvalParams();
        exp.params.iters = 16;
        exp.runCfg.faultPlan = core::FaultPlan::cuLoss(10, restore_us);
        return harness::runExperiment(exp);
    };
    auto gone = run(0);
    auto back = run(40);
    ASSERT_TRUE(gone.completed);
    ASSERT_TRUE(back.completed);
    EXPECT_TRUE(back.validated) << back.validationError;
    EXPECT_LT(back.gpuCycles, gone.gpuCycles);
}

class RestoredCu : public ::testing::TestWithParam<OverCase>
{
};

TEST_P(RestoredCu, OnlyRescuePoliciesExploitTheReturnedCu)
{
    // cuRestoreMicroseconds across the full policy matrix: the CU
    // comes back mid-run, but only policies with swap-in firmware can
    // use it. Baseline and Sleep stay stranded (their saved contexts
    // are never restored); every rescue-capable policy completes and
    // swaps WGs back in.
    const OverCase &c = GetParam();
    harness::Experiment exp;
    exp.workload = c.workload;
    exp.policy = c.policy;
    exp.params = test::smallParams();
    exp.params.iters = 12;
    exp.runCfg.faultPlan = core::FaultPlan::cuLoss(5, 20);
    auto result = harness::runExperiment(exp);
    if (c.expectDeadlock) {
        EXPECT_TRUE(result.deadlocked);
        EXPECT_EQ(result.contextRestores, 0u);
        // The liveness oracle separates the two stranded shapes:
        // Baseline blocks cold, Sleep spins its backoff forever.
        EXPECT_EQ(result.verdict, c.policy == Policy::Sleep
                                      ? core::Verdict::Livelock
                                      : core::Verdict::Deadlock);
    } else {
        EXPECT_TRUE(result.completed)
            << core::policyName(c.policy) << ": "
            << result.verdictString();
        EXPECT_TRUE(result.validated) << result.validationError;
        EXPECT_EQ(result.verdict, core::Verdict::Complete);
        EXPECT_GT(result.contextRestores, 0u);
    }
}

std::vector<OverCase>
restoreCases()
{
    std::vector<OverCase> cases;
    for (Policy p : {Policy::Baseline, Policy::Sleep})
        cases.push_back({"FAM_G", p, true});
    for (Policy p : {Policy::Timeout, Policy::MonRSAll,
                     Policy::MonRAll, Policy::MonNRAll,
                     Policy::MonNROne, Policy::Awg,
                     Policy::MinResume}) {
        cases.push_back({"FAM_G", p, false});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(FigTwo, RestoredCu,
                         ::testing::ValuesIn(restoreCases()),
                         overName);

TEST(DynamicResources, RestorationDoesNotSaveTheBaseline)
{
    // Even with the CU back, the Baseline machine has no firmware to
    // swap its pre-empted WGs back in: still a deadlock.
    harness::Experiment exp;
    exp.workload = "FAM_G";
    exp.policy = Policy::Baseline;
    exp.params = test::smallParams();
    exp.params.iters = 12;
    exp.runCfg.faultPlan = core::FaultPlan::cuLoss(5, 20);
    auto result = harness::runExperiment(exp);
    EXPECT_TRUE(result.deadlocked);
}

} // anonymous namespace
} // namespace ifp
