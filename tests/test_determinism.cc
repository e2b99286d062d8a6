/**
 * @file
 * Determinism: identical experiments must produce bit-identical
 * results — every RunResult field, every stats-JSON byte and every
 * trace byte. The whole evaluation methodology depends on this.
 *
 * The rerun matrix covers the 12 HeteroSync workloads under the
 * policies the paper centers on ({Baseline, Timeout, AWG}) and the
 * queue family under the waiting-atomic policies, each crossed with
 * two fault presets (CU churn and combined pressure).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_plan.hh"
#include "harness/sweep.hh"
#include "test_helpers.hh"
#include "workloads/queues.hh"

namespace ifp {
namespace {

using core::Policy;

/** Every RunResult field that simulation determinism covers. */
void
expectIdentical(const core::RunResult &a, const core::RunResult &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.deadlocked, b.deadlocked);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.runTicks, b.runTicks);
    EXPECT_EQ(a.gpuCycles, b.gpuCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.atomicInstructions, b.atomicInstructions);
    EXPECT_EQ(a.waitingAtomics, b.waitingAtomics);
    EXPECT_EQ(a.armWaits, b.armWaits);
    EXPECT_EQ(a.sleeps, b.sleeps);
    EXPECT_EQ(a.totalWgExecCycles, b.totalWgExecCycles);
    EXPECT_EQ(a.totalWgWaitCycles, b.totalWgWaitCycles);
    EXPECT_EQ(a.wgLifetimeCycles, b.wgLifetimeCycles);
    EXPECT_EQ(a.contextSaves, b.contextSaves);
    EXPECT_EQ(a.contextRestores, b.contextRestores);
    EXPECT_EQ(a.condResumesAll, b.condResumesAll);
    EXPECT_EQ(a.condResumesOne, b.condResumesOne);
    EXPECT_EQ(a.cpRescues, b.cpRescues);
    EXPECT_EQ(a.forcedPreemptions, b.forcedPreemptions);
    EXPECT_EQ(a.maxConditions, b.maxConditions);
    EXPECT_EQ(a.maxWaiters, b.maxWaiters);
    EXPECT_EQ(a.maxMonitoredLines, b.maxMonitoredLines);
    EXPECT_EQ(a.maxLogEntries, b.maxLogEntries);
    EXPECT_EQ(a.maxSpilledConds, b.maxSpilledConds);
    EXPECT_EQ(a.maxContextStoreBytes, b.maxContextStoreBytes);
    EXPECT_EQ(a.spills, b.spills);
    EXPECT_EQ(a.logFullRetries, b.logFullRetries);
    EXPECT_EQ(a.droppedResumes, b.droppedResumes);
    EXPECT_EQ(a.delayedResumes, b.delayedResumes);
    EXPECT_EQ(a.lostWakeups.size(), b.lostWakeups.size());
    EXPECT_EQ(a.faultRecoveries.size(), b.faultRecoveries.size());
    EXPECT_EQ(a.injectedFaults, b.injectedFaults);
    EXPECT_EQ(a.wgCompletionSpreadCycles, b.wgCompletionSpreadCycles);
    EXPECT_EQ(a.maxWgWaitCycles, b.maxWgWaitCycles);
    EXPECT_EQ(a.hostEvents, b.hostEvents);
    EXPECT_EQ(a.memRequests, b.memRequests);
    EXPECT_EQ(a.validated, b.validated);
    EXPECT_EQ(a.validationError, b.validationError);
    for (std::size_t r = 0; r < sim::numStallReasons; ++r)
        EXPECT_EQ(a.wgCycleBreakdown[r], b.wgCycleBreakdown[r]);
}

struct DetCase
{
    std::string workload;
    Policy policy;
    bool oversubscribed;
};

void
PrintTo(const DetCase &c, std::ostream *os)
{
    *os << "workload=" << c.workload << " " << "oversubscribed=" << c.oversubscribed << " ";
}


std::string
detName(const ::testing::TestParamInfo<DetCase> &info)
{
    std::string name = info.param.workload + "_" +
                       core::policyName(info.param.policy) +
                       (info.param.oversubscribed ? "_over" : "");
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

class Determinism : public ::testing::TestWithParam<DetCase>
{
};

TEST_P(Determinism, RepeatedRunsAreIdentical)
{
    const DetCase &c = GetParam();
    core::RunResult a =
        test::runSmall(c.workload, c.policy, c.oversubscribed);
    core::RunResult b =
        test::runSmall(c.workload, c.policy, c.oversubscribed);
    expectIdentical(a, b, "rerun");
}

INSTANTIATE_TEST_SUITE_P(
    RepresentativeRuns, Determinism,
    ::testing::Values(DetCase{"SPM_G", Policy::Baseline, false},
                      DetCase{"SPM_G", Policy::Awg, false},
                      DetCase{"FAM_G", Policy::MonNROne, false},
                      DetCase{"TB_LG", Policy::MonNRAll, false},
                      DetCase{"SLM_L", Policy::Sleep, false},
                      DetCase{"LFTB_LG", Policy::Timeout, false},
                      DetCase{"FAM_G", Policy::Awg, true},
                      DetCase{"TB_LG", Policy::Timeout, true}),
    detName);

// The whole parallel-sweep design rests on this: a sweep run on four
// workers must be bit-identical — every counter, every stat — to the
// same sweep run serially, in the same submission order.
TEST(SweepDeterminism, ParallelSweepMatchesSerialBitForBit)
{
    std::vector<harness::Experiment> exps;
    auto add = [&](const std::string &w, Policy policy,
                   bool oversubscribed) {
        harness::Experiment exp;
        exp.workload = w;
        exp.policy = policy;
        exp.params = test::smallParams();
        if (oversubscribed) {
            exp.params.iters = 12;
            exp.runCfg.faultPlan = core::FaultPlan::cuLoss(5);
        }
        exps.push_back(std::move(exp));
    };
    add("SPM_G", Policy::Baseline, false);
    add("SPM_G", Policy::Awg, false);
    add("FAM_G", Policy::MonNROne, false);
    add("TB_LG", Policy::MonNRAll, false);
    add("SLM_L", Policy::Sleep, false);
    add("LFTB_LG", Policy::Timeout, false);
    add("FAM_G", Policy::Awg, true);
    add("TB_LG", Policy::Timeout, true);

    std::vector<core::RunResult> serial = harness::runSweep(exps, 1);
    std::vector<core::RunResult> parallel = harness::runSweep(exps, 4);

    ASSERT_EQ(serial.size(), exps.size());
    ASSERT_EQ(parallel.size(), exps.size());
    for (std::size_t i = 0; i < exps.size(); ++i) {
        expectIdentical(serial[i], parallel[i],
                        exps[i].workload + "/" +
                            core::policyName(exps[i].policy) +
                            (exps[i].runCfg.faultPlan.losesCu()
                                 ? "/over"
                                 : ""));
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing artifact " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct Artifacts
{
    core::RunResult result;
    std::string statsJson;
    std::string trace;
};

/** Run one (workload, policy, fault preset) cell and keep its files. */
Artifacts
runCell(const std::string &workload, Policy policy,
        const std::string &preset, bool want_trace = false)
{
    // ctest -j runs many filtered instances of this binary at once;
    // the pid keeps their scratch artifacts from colliding in TempDir.
    static int unique = 0;
    std::string base = ::testing::TempDir() + "rerun_" +
                       std::to_string(static_cast<long>(::getpid())) +
                       "_" + std::to_string(++unique);

    harness::Experiment exp;
    exp.workload = workload;
    exp.policy = policy;
    exp.params = test::smallParams();
    exp.runCfg.faultPlan = core::faultPlanPreset(preset);
    exp.observe.statsJsonPath = base + ".stats.json";
    if (want_trace)
        exp.observe.traceOutPath = base + ".trace.json";

    Artifacts a;
    a.result = harness::runExperiment(exp);
    a.statsJson = slurp(exp.observe.statsJsonPath);
    std::remove(exp.observe.statsJsonPath.c_str());
    if (want_trace) {
        a.trace = slurp(exp.observe.traceOutPath);
        std::remove(exp.observe.traceOutPath.c_str());
    }
    return a;
}

struct ParityCase
{
    std::string workload;
    Policy policy;
    std::string preset;
};

void
PrintTo(const ParityCase &c, std::ostream *os)
{
    *os << c.workload << "/" << core::policyName(c.policy) << "/"
        << c.preset;
}

std::string
parityName(const ::testing::TestParamInfo<ParityCase> &info)
{
    std::string name = info.param.workload + "_" +
                       core::policyName(info.param.policy) + "_" +
                       info.param.preset;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

/**
 * The fault-preset rerun matrix. It keeps the suite and test names it
 * had when the simulator also had a sharded event core, so each cell's
 * history stays under one id; with one event queue per machine, shard
 * parity reduces to two serial runs agreeing in every RunResult field
 * and every stats-JSON byte.
 */
class ShardParity : public ::testing::TestWithParam<ParityCase>
{
};

TEST_P(ShardParity, ShardCountsAreByteIdenticalAndLegacyMacroEquivalent)
{
    const ParityCase &c = GetParam();
    Artifacts a = runCell(c.workload, c.policy, c.preset);
    Artifacts b = runCell(c.workload, c.policy, c.preset);
    expectIdentical(a.result, b.result, "rerun");
    EXPECT_EQ(a.statsJson, b.statsJson)
        << "stats-JSON bytes diverge between reruns";
}

std::vector<ParityCase>
parityMatrix()
{
    std::vector<ParityCase> cases;
    for (const std::string &w : workloads::heteroSyncAbbrevs()) {
        for (Policy p : {Policy::Baseline, Policy::Timeout, Policy::Awg})
            for (const char *f : {"cu-churn", "kitchen-sink"})
                cases.push_back({w, p, f});
    }
    // The queue family's data-condition waits: the waiting-atomic
    // policies are the interesting ones (busy waiting is covered
    // twelve-fold above).
    for (const std::string &w : workloads::queueAbbrevs()) {
        for (Policy p : {Policy::Timeout, Policy::Awg})
            for (const char *f : {"cu-churn", "kitchen-sink"})
                cases.push_back({w, p, f});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(FullSuite, ShardParity,
                         ::testing::ValuesIn(parityMatrix()), parityName);

TEST(TraceDeterminism, ChromeTraceBytesAreIdenticalAcrossReruns)
{
    Artifacts a = runCell("SPM_G", Policy::Awg, "cu-churn", true);
    Artifacts b = runCell("SPM_G", Policy::Awg, "cu-churn", true);
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.trace, b.trace)
        << "Chrome-trace bytes diverge between reruns";
}

} // anonymous namespace
} // namespace ifp
