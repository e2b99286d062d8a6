/**
 * @file
 * Tests for the JSON result serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/results_io.hh"
#include "sim/json.hh"
#include "test_helpers.hh"

namespace ifp::harness {
namespace {

TEST(ResultsJson, ContainsAllKeyFields)
{
    Experiment exp;
    exp.workload = "SPM_G";
    exp.policy = core::Policy::Awg;
    exp.params = ifp::test::smallParams();
    core::RunResult r = runExperiment(exp);

    std::ostringstream os;
    writeResultJson(os, exp, r);
    std::string json = os.str();

    for (const char *key :
         {"\"workload\":\"SPM_G\"", "\"policy\":\"AWG\"",
          "\"completed\":true", "\"validated\":true", "\"gpuCycles\":",
          "\"atomicInstructions\":", "\"contextSaves\":",
          "\"maxConditions\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(ResultsJson, DeadlockSerializesAsFlags)
{
    Experiment exp;
    exp.workload = "FAM_G";
    exp.policy = core::Policy::Baseline;
    exp.params = ifp::test::smallParams();
    exp.params.iters = 12;
    exp.runCfg.faultPlan = core::FaultPlan::cuLoss(5);
    core::RunResult r = runExperiment(exp);
    ASSERT_TRUE(r.deadlocked);

    std::ostringstream os;
    writeResultJson(os, exp, r);
    EXPECT_NE(os.str().find("\"deadlocked\":true"),
              std::string::npos);
    EXPECT_NE(os.str().find("\"oversubscribed\":true"),
              std::string::npos);
}

TEST(ResultsJson, CycleTotalsRoundTripExactly)
{
    // Cycle totals need every digit: rounded to six significant
    // digits (2.15833e+08) the stall buckets no longer sum to the
    // lifetime.
    Experiment exp;
    exp.workload = "SLM_G";
    exp.policy = core::Policy::Timeout;
    core::RunResult r;
    r.wgLifetimeCycles = 215833338;
    r.wgCycleBreakdown = {26064, 0, 214720000, 0, 6400, 1080874};

    std::ostringstream os;
    writeResultJson(os, exp, r);
    std::optional<sim::json::Value> doc = sim::json::tryParse(os.str());
    ASSERT_TRUE(doc.has_value()) << os.str();
    const sim::json::Value *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, "ifp-result-v1");
    EXPECT_EQ(doc->find("wgLifetimeCycles")->number, 215833338.0);

    const sim::json::Value *stalls = doc->find("stallCycles");
    ASSERT_NE(stalls, nullptr);
    ASSERT_EQ(stalls->object.size(), sim::numStallReasons);
    double sum = 0.0;
    for (std::size_t i = 0; i < sim::numStallReasons; ++i) {
        EXPECT_EQ(stalls->object[i].second.number,
                  r.wgCycleBreakdown[i]);
        sum += stalls->object[i].second.number;
    }
    EXPECT_EQ(sum, 215833338.0);
    EXPECT_EQ(stalls->find("memory")->number, 1080874.0);
}

} // anonymous namespace
} // namespace ifp::harness
