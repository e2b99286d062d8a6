/**
 * @file
 * Queue-family gates (DESIGN.md §12): the per-policy verdict
 * annotations over the full (queue workload x policy) matrix at the
 * paper's default geometry, AWG resume-prediction accounting on the
 * high-unique-update-rate counters, constructor-parameter variants
 * through the Experiment workload factory, and the family's wiring
 * into the fault-injection campaign and the multi-tenant serving
 * scenario. Separate binary so `ctest -L queues` runs exactly this
 * surface.
 */

#include <cctype>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/campaign.hh"
#include "harness/serving.hh"
#include "test_helpers.hh"
#include "workloads/queues.hh"

namespace ifp {
namespace {

using core::Policy;
using core::Verdict;

const std::vector<Policy> allPolicies = {
    Policy::Baseline, Policy::Sleep,    Policy::Timeout,
    Policy::MonRSAll, Policy::MonRAll,  Policy::MonNRAll,
    Policy::MonNROne, Policy::Awg,      Policy::MinResume};

core::RunResult
runQueueDefault(const std::string &workload, Policy policy)
{
    harness::Experiment exp;
    exp.workload = workload;
    exp.policy = policy;
    exp.params = harness::defaultEvalParams();
    return harness::runExperiment(exp);
}

struct QueueCell
{
    std::string workload;
    Policy policy;
};

std::string
cellName(const ::testing::TestParamInfo<QueueCell> &info)
{
    std::string name = info.param.workload + "_" +
                       core::policyName(info.param.policy);
    for (char &ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return name;
}

class QueueVerdictMatrix : public ::testing::TestWithParam<QueueCell>
{};

/**
 * The annotation contract of the family: every (queue workload,
 * policy) cell's observed verdict at the default all-resident
 * geometry must match queueExpectedVerdict(), and completed runs
 * must produce valid memory images (checksums, final counter
 * values, slot sequences).
 */
TEST_P(QueueVerdictMatrix, ObservedVerdictMatchesAnnotation)
{
    const QueueCell &c = GetParam();
    core::RunResult r = runQueueDefault(c.workload, c.policy);
    EXPECT_EQ(r.verdict,
              workloads::queueExpectedVerdict(c.workload, c.policy))
        << c.workload << "/" << core::policyName(c.policy) << ": "
        << r.verdictString();
    if (r.completed) {
        EXPECT_TRUE(r.validated) << r.validationError;
    }
    EXPECT_GT(r.atomicInstructions, 0u);
}

std::vector<QueueCell>
allQueueCells()
{
    std::vector<QueueCell> cells;
    for (const std::string &w : workloads::queueAbbrevs())
        for (Policy policy : allPolicies)
            cells.push_back({w, policy});
    return cells;
}

INSTANTIATE_TEST_SUITE_P(AllQueuesAllPolicies, QueueVerdictMatrix,
                         ::testing::ValuesIn(allQueueCells()),
                         cellName);

TEST(QueueFamily, AwgPredictsResumesOnQueueCounters)
{
    // The queue counters take many distinct values before any
    // expectation is met — the predictor must still fire (waiters
    // park, updates hit monitored lines) and its misprediction
    // accounting must stay within the predicted total.
    for (const std::string &w : workloads::queueAbbrevs()) {
        core::RunResult r = runQueueDefault(w, Policy::Awg);
        ASSERT_TRUE(r.completed) << w << ": " << r.verdictString();
        EXPECT_GT(r.predictedResumes, 0u) << w;
        EXPECT_LE(r.mispredictedResumes, r.predictedResumes) << w;
    }
}

TEST(QueueFamily, DepthAndRatioVariantsComplete)
{
    // Constructor-parameter variants via the Experiment factory: a
    // shallow ring under a 3:1 producer:consumer imbalance (Timeout
    // must ride out full-queue stalls) and a shallow pipeline under
    // AWG.
    harness::Experiment mpmc;
    mpmc.workload = "MPMCQ";
    mpmc.policy = Policy::Timeout;
    mpmc.params = harness::defaultEvalParams();
    mpmc.makeWorkload = [] {
        return std::make_unique<workloads::MpmcQueueWorkload>(
            /*depth=*/4, /*producer_share=*/3, /*consumer_share=*/1);
    };
    core::RunResult r = harness::runExperiment(mpmc);
    EXPECT_TRUE(r.completed) << r.verdictString();
    EXPECT_TRUE(r.validated) << r.validationError;

    harness::Experiment pipe;
    pipe.workload = "PIPE";
    pipe.policy = Policy::Awg;
    pipe.params = harness::defaultEvalParams();
    pipe.makeWorkload = [] {
        return std::make_unique<workloads::PipelineWorkload>(
            /*stages=*/3, /*depth=*/4);
    };
    r = harness::runExperiment(pipe);
    EXPECT_TRUE(r.completed) << r.verdictString();
    EXPECT_TRUE(r.validated) << r.validationError;
}

TEST(QueueFamily, ChaosCampaignSurvivesFaultPlans)
{
    // Fault-injection wiring: seeded chaos plans against the MPMC
    // ring. The generator only emits survivable plans, so the
    // swap-capable policies must complete every plan with a valid
    // memory image, and AWG must preserve the forward-progress
    // ordering over Timeout.
    harness::CampaignConfig cfg;
    cfg.workload = "MPMCQ";
    cfg.policies = {Policy::Timeout, Policy::Awg};
    cfg.numPlans = 6;
    cfg.baseSeed = 1;
    cfg.params = test::smallParams();
    cfg.params.iters = 4;
    cfg.runCfg.deadlockWindowCycles = 200'000;
    cfg.jobs = 1;

    harness::CampaignReport report = harness::runChaosCampaign(cfg);
    ASSERT_EQ(report.runs.size(), cfg.numPlans * cfg.policies.size());
    for (const harness::CampaignRun &run : report.runs) {
        EXPECT_NE(run.result.verdict, Verdict::Unknown);
        EXPECT_TRUE(run.result.completed)
            << core::policyName(run.policy) << ": "
            << run.result.verdictString();
        EXPECT_TRUE(run.result.validated)
            << run.result.validationError;
    }
    EXPECT_TRUE(report.completesAllOf(Policy::Awg, Policy::Timeout));

    std::ostringstream csv;
    report.writeCsv(csv);
    EXPECT_FALSE(csv.str().empty());
}

TEST(QueueFamily, ServesAsLatencyAndThroughputTenants)
{
    // Serving wiring: queue kernels as tenants of the admission
    // scheduler — the MPMC ring as the latency tenant, the
    // work-stealing drain as the throughput tenant.
    harness::ServingConfig cfg;
    cfg.policy = Policy::Awg;
    cfg.admission = "share";
    cfg.numLaunches = 8;
    cfg.seed = 7;
    cfg.meanInterarrivalUs = 3.0;
    cfg.params = harness::defaultServingParams();
    cfg.tenants = {
        harness::ServingTenant{"latency", "MPMCQ", 2, 1'000'000, 1.0},
        harness::ServingTenant{"throughput", "WSD", 0, 0, 1.0},
    };

    harness::ServingReport report = harness::runServingScenario(cfg);
    EXPECT_TRUE(report.allCompleted) << report.verdict;
    EXPECT_EQ(report.completionOrder.size(), cfg.numLaunches);
    EXPECT_GT(report.fairness, 0.0);
    EXPECT_LE(report.fairness, 1.0);

    // Deterministic like every other serving mix: same (config,
    // seed), byte-identical report.
    std::ostringstream a, b;
    harness::writeServingJson(a, report);
    harness::writeServingJson(b, harness::runServingScenario(cfg));
    EXPECT_EQ(a.str(), b.str());
}

} // anonymous namespace
} // namespace ifp
