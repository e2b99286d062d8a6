/**
 * @file
 * The observability layer end to end: Chrome-trace export validity,
 * stats-JSON round-tripping, and the stall-reason accounting
 * invariant (the per-reason buckets partition every WG's lifetime).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "harness/observe.hh"
#include "harness/results_io.hh"
#include "harness/runner.hh"

using namespace ifp;
using harness::json::Value;

namespace {

/** A tiny 2-CU experiment that still exercises synchronization. */
harness::Experiment
tinyExperiment(core::Policy policy)
{
    harness::Experiment exp;
    exp.workload = "SPM_G";
    exp.policy = policy;
    exp.params.numWgs = 8;
    exp.params.wgsPerGroup = 4;
    exp.params.wiPerWg = 16;
    exp.params.iters = 2;
    exp.runCfg.gpu.numCus = 2;
    exp.observe.captureTrace = true;
    return exp;
}

/** Run @p exp and return the Chrome-trace JSON text. */
std::string
chromeTraceOf(const harness::Experiment &exp)
{
    std::ostringstream os;
    harness::runExperimentWithSystem(exp,
                                     [&](core::GpuSystem &system) {
                                         harness::writeChromeTrace(
                                             os, system);
                                     });
    return os.str();
}

double
sumBreakdown(const core::RunResult &r)
{
    double sum = 0.0;
    for (double cycles : r.wgCycleBreakdown)
        sum += cycles;
    return sum;
}

} // anonymous namespace

TEST(ChromeTrace, TinyRunProducesValidTrace)
{
    std::string text = chromeTraceOf(tinyExperiment(core::Policy::Awg));

    std::optional<Value> doc = harness::json::tryParse(text);
    ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
    ASSERT_TRUE(doc->isObject());

    const Value *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->array.empty());

    // Every event carries the required Chrome-trace fields; async
    // begin/end streams must pair up per (cat, id).
    std::map<std::pair<std::string, double>, int> open_spans;
    bool saw_instant = false;
    for (const Value &ev : events->array) {
        ASSERT_TRUE(ev.isObject());
        const Value *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_TRUE(ph->isString());
        const Value *pid = ev.find("pid");
        ASSERT_NE(pid, nullptr);
        EXPECT_TRUE(pid->isNumber());
        if (ph->string == "M")
            continue;
        const Value *ts = ev.find("ts");
        ASSERT_NE(ts, nullptr);
        EXPECT_TRUE(ts->isNumber());
        if (ph->string == "i") {
            saw_instant = true;
        } else if (ph->string == "b" || ph->string == "e") {
            const Value *cat = ev.find("cat");
            const Value *id = ev.find("id");
            ASSERT_NE(cat, nullptr);
            ASSERT_NE(id, nullptr);
            auto key = std::make_pair(cat->string, id->number);
            open_spans[key] += ph->string == "b" ? 1 : -1;
            EXPECT_GE(open_spans[key], 0)
                << "async 'e' before its 'b' for cat="
                << cat->string;
        }
    }
    EXPECT_TRUE(saw_instant);
    for (const auto &[key, open] : open_spans) {
        EXPECT_EQ(open, 0) << "unclosed async span, cat=" << key.first
                           << " id=" << key.second;
    }
}

TEST(ChromeTrace, ExportIsDeterministic)
{
    harness::Experiment exp = tinyExperiment(core::Policy::Awg);
    EXPECT_EQ(chromeTraceOf(exp), chromeTraceOf(exp));
}

TEST(ChromeTrace, UntracedRunHasNoSink)
{
    harness::Experiment exp = tinyExperiment(core::Policy::Awg);
    exp.observe = harness::ObserveOptions{};
    ASSERT_FALSE(exp.observe.wantsCapture());
    harness::runExperimentWithSystem(exp,
                                     [](core::GpuSystem &system) {
                                         EXPECT_EQ(system.traceSink(),
                                                   nullptr);
                                     });
}

TEST(StatsJson, FileExportRoundTrips)
{
    harness::Experiment exp = tinyExperiment(core::Policy::MonNRAll);
    std::string path =
        testing::TempDir() + "ifp_stats_{policy}.json";
    exp.observe.statsJsonPath = path;
    harness::runExperiment(exp);

    std::string expanded = harness::expandObservePath(path, exp);
    std::ifstream in(expanded);
    ASSERT_TRUE(in.good()) << "stats file missing: " << expanded;
    std::stringstream buf;
    buf << in.rdbuf();

    std::optional<Value> doc = harness::json::tryParse(buf.str());
    ASSERT_TRUE(doc.has_value()) << "stats-JSON is not valid JSON";

    const Value *res = doc->find("experiment-result");
    ASSERT_NE(res, nullptr);
    ASSERT_TRUE(res->isObject());
    EXPECT_NE(res->find("gpuCycles"), nullptr);
    const Value *stalls = res->find("stallCycles");
    ASSERT_NE(stalls, nullptr);
    ASSERT_TRUE(stalls->isObject());
    EXPECT_EQ(stalls->object.size(), sim::numStallReasons);
    for (std::size_t i = 0; i < sim::numStallReasons; ++i) {
        EXPECT_NE(stalls->find(sim::stallReasonName(
                      static_cast<sim::StallReason>(i))),
                  nullptr);
    }

    const Value *groups = doc->find("groups");
    ASSERT_NE(groups, nullptr);
    ASSERT_TRUE(groups->isArray());
    EXPECT_FALSE(groups->array.empty());

    // Round trip: write the parsed document and parse it again.
    std::ostringstream rewritten;
    harness::json::write(rewritten, *doc);
    std::optional<Value> doc2 =
        harness::json::tryParse(rewritten.str());
    ASSERT_TRUE(doc2.has_value());
    EXPECT_TRUE(*doc == *doc2);
}

TEST(StallBreakdown, PartitionsLifetimeWhenOversubscribed)
{
    // The acceptance scenario: an oversubscribed AWG run with context
    // switching. Every WG-lifetime tick must land in exactly one
    // bucket.
    harness::Experiment exp;
    exp.workload = "SPM_G";
    exp.policy = core::Policy::Awg;
    exp.params = harness::defaultEvalParams();
    exp.params.iters = 2;
    // Lose the CU early enough that this short run actually swaps.
    exp.runCfg.faultPlan = core::FaultPlan::cuLoss(10);

    core::RunResult r = harness::runExperiment(exp);
    ASSERT_GT(r.contextSaves, 0u);
    ASSERT_TRUE(r.completed);
    ASSERT_GT(r.wgLifetimeCycles, 0.0);

    EXPECT_NEAR(sumBreakdown(r), r.wgLifetimeCycles,
                1e-6 * r.wgLifetimeCycles + 1.0);

    // Oversubscription forces context save/restore traffic and keeps
    // WGs parked in the dispatch queue.
    EXPECT_GT(r.stallCycles(sim::StallReason::SaveRestore), 0.0);
    EXPECT_GT(r.stallCycles(sim::StallReason::DispatchQueue), 0.0);
    EXPECT_GT(r.stallCycles(sim::StallReason::Running), 0.0);
}

TEST(StallBreakdown, PartitionsLifetimeAcrossPolicies)
{
    for (core::Policy policy :
         {core::Policy::Baseline, core::Policy::Sleep,
          core::Policy::Timeout, core::Policy::MonNRAll,
          core::Policy::MonNROne}) {
        harness::Experiment exp = tinyExperiment(policy);
        exp.observe = harness::ObserveOptions{};
        core::RunResult r = harness::runExperiment(exp);
        ASSERT_TRUE(r.completed)
            << "policy " << core::policyName(policy);
        EXPECT_NEAR(sumBreakdown(r), r.wgLifetimeCycles,
                    1e-6 * r.wgLifetimeCycles + 1.0)
            << "policy " << core::policyName(policy);
    }
}

TEST(StallBreakdown, WaitingBucketAgreesWithFig11Accounting)
{
    // Cross-check against the Figure 11 metric: sync-wait time seen
    // by the stall buckets (Waiting + Spin) can never exceed the
    // fig11 totalWgWaitCycles, which runs whenever any wavefront
    // waits (a superset of the bucket conditions) clipped to the
    // dispatch..end window (also a superset of the bucket window).
    harness::Experiment exp = tinyExperiment(core::Policy::MonNRAll);
    exp.observe = harness::ObserveOptions{};
    core::RunResult r = harness::runExperiment(exp);
    ASSERT_TRUE(r.completed);

    double bucket_wait = r.stallCycles(sim::StallReason::Waiting) +
                         r.stallCycles(sim::StallReason::Spin);
    EXPECT_GT(r.totalWgWaitCycles, 0.0);
    EXPECT_GT(bucket_wait, 0.0);
    EXPECT_LE(bucket_wait, r.totalWgWaitCycles * (1.0 + 1e-6) + 1.0);
}

TEST(Observe, ExpandsPathPlaceholders)
{
    harness::Experiment exp;
    exp.workload = "FAM_G";
    exp.policy = core::Policy::MonNROne;
    exp.runCfg.faultPlan = core::FaultPlan::cuLoss(10);
    EXPECT_EQ(harness::expandObservePath(
                  "out/{workload}-{policy}-{scenario}.json", exp),
              "out/FAM_G-MonNR-One-oversub.json");
    // Any plan that takes a CU offline is the oversubscribed scenario.
    exp.runCfg.faultPlan = core::faultPlanPreset("cu-churn");
    EXPECT_EQ(harness::expandObservePath("t-{scenario}", exp),
              "t-oversub");
    exp.runCfg.faultPlan = core::FaultPlan();
    EXPECT_EQ(harness::expandObservePath("t-{scenario}", exp),
              "t-steady");
}

TEST(Observe, TraceFileExportMatchesInMemoryExport)
{
    harness::Experiment exp = tinyExperiment(core::Policy::Awg);
    std::string path = testing::TempDir() + "ifp_trace_test.json";
    exp.observe.traceOutPath = path;

    std::ostringstream inline_os;
    harness::runExperimentWithSystem(
        exp, [&](core::GpuSystem &system) {
            harness::writeChromeTrace(inline_os, system);
        });

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "trace file missing: " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), inline_os.str());
}

TEST(JsonParser, RejectsMalformedInput)
{
    using harness::json::tryParse;
    EXPECT_FALSE(tryParse("").has_value());
    EXPECT_FALSE(tryParse("{").has_value());
    EXPECT_FALSE(tryParse("[1,]").has_value());
    EXPECT_FALSE(tryParse("{\"a\":}").has_value());
    EXPECT_FALSE(tryParse("tru").has_value());
    EXPECT_FALSE(tryParse("{} trailing").has_value());
}

TEST(JsonParser, ParsesScalarsAndNesting)
{
    using harness::json::tryParse;
    std::optional<Value> v =
        tryParse("{\"a\":[1,2.5,-3],\"b\":{\"c\":true,"
                 "\"d\":null,\"e\":\"x\\ny\"}}");
    ASSERT_TRUE(v.has_value());
    const Value *a = v->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
    EXPECT_DOUBLE_EQ(a->array[2].number, -3.0);
    const Value *b = v->find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(b->find("c")->boolean);
    EXPECT_TRUE(b->find("d")->isNull());
    EXPECT_EQ(b->find("e")->string, "x\ny");
}
