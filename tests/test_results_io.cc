/**
 * @file
 * Tests for the JSON result serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/results_io.hh"
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

TEST(ResultsJson, ArrayFormat)
{
    Experiment exp;
    exp.workload = "HT";
    exp.policy = core::Policy::Awg;
    exp.params = ifp::test::smallParams();
    core::RunResult r = runExperiment(exp);

    std::ostringstream os;
    writeResultsJson(os, {{exp, r}, {exp, r}});
    std::string text = os.str();
    EXPECT_EQ(text.front(), '[');

    std::optional<json::Value> doc = json::tryParse(text);
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isArray());
    ASSERT_EQ(doc->array.size(), 2u);
    for (const json::Value &entry : doc->array) {
        ASSERT_TRUE(entry.isObject());
        EXPECT_NE(entry.find("gpuCycles"), nullptr);
        const json::Value *stalls = entry.find("stallCycles");
        ASSERT_NE(stalls, nullptr);
        EXPECT_TRUE(stalls->isObject());
    }
}

} // anonymous namespace
} // namespace ifp::harness
