/**
 * @file
 * Fault-injection engine and liveness oracles: plan model and
 * serialization, scenario validation, chaos-campaign determinism,
 * and the verdicts that refine DEADLOCK (LIVELOCK, LOST_WAKEUP).
 * Run with `ctest -L robustness`.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/fault_plan.hh"
#include "core/liveness.hh"
#include "harness/campaign.hh"
#include "test_helpers.hh"

namespace ifp {
namespace {

using core::FaultKind;
using core::FaultPlan;
using core::Policy;
using core::Verdict;

// ---------------------------------------------------------------
// Plan model and serialization
// ---------------------------------------------------------------

TEST(FaultPlanModel, GeneratorIsDeterministic)
{
    core::ChaosSpec spec;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        FaultPlan a = core::generateChaosPlan(spec, seed);
        FaultPlan b = core::generateChaosPlan(spec, seed);
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_FALSE(a.empty());
    }
    EXPECT_NE(core::generateChaosPlan(spec, 1),
              core::generateChaosPlan(spec, 2));
}

TEST(FaultPlanModel, GeneratorEmitsSurvivablePlans)
{
    core::ChaosSpec spec;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        FaultPlan plan = core::generateChaosPlan(spec, seed);
        for (std::size_t i = 0; i < plan.events.size(); ++i) {
            const core::FaultEvent &ev = plan.events[i];
            if (ev.kind != FaultKind::CuOffline)
                continue;
            ASSERT_GE(ev.cuId, 0);
            ASSERT_LT(ev.cuId, static_cast<int>(spec.numCus));
            // Every offline edge has a later online edge for the
            // same CU: no plan strands a CU forever.
            bool restored = false;
            for (std::size_t j = 0; j < plan.events.size(); ++j) {
                const core::FaultEvent &on = plan.events[j];
                if (on.kind == FaultKind::CuOnline &&
                    on.cuId == ev.cuId && on.atUs > ev.atUs) {
                    restored = true;
                    break;
                }
            }
            EXPECT_TRUE(restored)
                << "seed " << seed << ": cu" << ev.cuId
                << " offlined at " << ev.atUs << "us never restored";
        }
    }
}

TEST(FaultPlanModel, TextRoundTripsEveryPreset)
{
    for (const std::string &name : core::faultPlanPresetNames()) {
        FaultPlan plan = core::faultPlanPreset(name);
        EXPECT_FALSE(plan.empty()) << name;
        std::string error;
        auto parsed = core::parseFaultPlan(core::writeFaultPlan(plan),
                                           error);
        ASSERT_TRUE(parsed.has_value()) << name << ": " << error;
        EXPECT_EQ(*parsed, plan) << name;
    }
}

TEST(FaultPlanModel, TextRoundTripsGeneratedPlans)
{
    FaultPlan plan = core::generateChaosPlan(core::ChaosSpec{}, 42);
    std::string error;
    auto parsed =
        core::parseFaultPlan(core::writeFaultPlan(plan), error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, plan);
}

TEST(FaultPlanModel, ParserReportsErrorsWithLineNumbers)
{
    std::string error;
    EXPECT_FALSE(core::parseFaultPlan("cu-offline cu=3\n", error));
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
    EXPECT_NE(error.find("at="), std::string::npos) << error;

    EXPECT_FALSE(core::parseFaultPlan(
        "plan ok\nwarp-drive at=5\n", error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;

    // Windowed kinds need a duration.
    EXPECT_FALSE(core::parseFaultPlan("log-jam at=5\n", error));
    EXPECT_NE(error.find("dur="), std::string::npos) << error;

    EXPECT_FALSE(core::parseFaultPlan("cu-offline at 5\n", error));
    EXPECT_NE(error.find("key=value"), std::string::npos) << error;
}

TEST(FaultPlanModel, ParserIgnoresCommentsAndBlanks)
{
    std::string error;
    auto plan = core::parseFaultPlan(
        "# a comment\n\nplan demo\ncu-offline at=10 cu=2  # inline\n",
        error);
    ASSERT_TRUE(plan.has_value()) << error;
    EXPECT_EQ(plan->name, "demo");
    ASSERT_EQ(plan->events.size(), 1u);
    EXPECT_EQ(plan->events[0].cuId, 2);
}

// ---------------------------------------------------------------
// Construction-time validation
// ---------------------------------------------------------------

TEST(ScenarioValidation, RejectsOutOfRangePlanChurnTarget)
{
    core::RunConfig cfg = test::testRunConfig();
    cfg.faultPlan.events = {
        {FaultKind::CuOffline, 10, 0, 12, 0}};
    EXPECT_THROW(core::GpuSystem bad(cfg), std::invalid_argument);

    cfg.faultPlan.events = {{FaultKind::CuOffline, 10, 0, -1, 0},
                            {FaultKind::CuOnline, 20, 0, -1, 0}};
    EXPECT_NO_THROW(core::GpuSystem ok(cfg));
}

// ---------------------------------------------------------------
// Liveness verdicts
// ---------------------------------------------------------------

TEST(Verdicts, CompletedRunsReportComplete)
{
    auto result = test::runSmall("SPM_G", Policy::Awg);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.verdict, Verdict::Complete);
    EXPECT_NE(result.verdictString().find("COMPLETE"),
              std::string::npos);
}

TEST(Verdicts, StrandedBaselineIsDeadlock)
{
    // Busy-wait spinning uses plain atomics (no retry signal), so the
    // stranded oversubscribed Baseline is a clean DEADLOCK.
    auto result = test::runSmall("FAM_G", Policy::Baseline, true);
    ASSERT_TRUE(result.deadlocked);
    EXPECT_EQ(result.verdict, Verdict::Deadlock);
    // Legacy status strings are part of the table format and must
    // not change with the verdict refinement.
    EXPECT_EQ(result.statusString(), "DEADLOCK");
}

TEST(Verdicts, SleepBackoffClassifiesAsLivelock)
{
    // The stranded WGs hold the lock, but resident WGs keep waking
    // from s_sleep and retrying: busy, not blocked.
    auto result = test::runSmall("FAM_G", Policy::Sleep, true);
    ASSERT_TRUE(result.deadlocked);
    EXPECT_EQ(result.verdict, Verdict::Livelock);
    EXPECT_EQ(result.statusString(), "DEADLOCK");
}

/**
 * Producer/consumer pair for the dropped-resume scenario. WG0 waits
 * for the flag; WG1 raises it after some work. The wait uses the
 * MonR-style check + arm-wait sequence with no gap, so without fault
 * injection the monitor resume always arrives.
 */
isa::Kernel
flagKernel(mem::Addr flag, bool wait_instr)
{
    isa::KernelBuilder b;
    b.movi(16, static_cast<std::int64_t>(flag));
    b.movi(17, 1);

    isa::Label consumer = b.label();
    isa::Label finish = b.label();
    b.bz(isa::rWgId, consumer);

    b.valu(5'000);  // producer: work, then raise the flag
    b.atom(20, mem::AtomicOpcode::Exch, 16, 0, 17, 0, false, true);
    b.br(finish);

    b.bind(consumer);
    if (wait_instr) {
        isa::Label poll = b.here();
        isa::Label got = b.label();
        b.atom(20, mem::AtomicOpcode::Load, 16, 0, 0, 0, true);
        b.cmpEq(21, 20, 17);
        b.bnz(21, got);
        b.armWait(16, 0, 17);
        b.br(poll);
        b.bind(got);
    } else {
        isa::Label retry = b.here();
        b.atomWait(20, mem::AtomicOpcode::Load, 16, 0, 0, 17, true);
        b.cmpEq(21, 20, 17);
        b.bz(21, retry);
    }
    b.bind(finish);
    b.halt();

    isa::Kernel k;
    k.name = "flag";
    k.code = b.build();
    k.numWgs = 2;
    k.wiPerWg = 64;
    k.maxWgsPerCu = 8;
    return k;
}

core::RunResult
runFlagKernel(Policy policy, const FaultPlan &plan,
              sim::Cycles rescue_cycles)
{
    core::RunConfig cfg;
    cfg.policy.policy = policy;
    cfg.policy.syncmon.rescueIntervalCycles = rescue_cycles;
    cfg.faultPlan = plan;
    cfg.deadlockWindowCycles = 100'000;
    core::GpuSystem system(cfg);
    mem::Addr flag = system.allocate(64);
    return system.run(
        flagKernel(flag, core::styleFor(policy) ==
                             core::SyncStyle::WaitInstr));
}

FaultPlan
dropResumePlan()
{
    FaultPlan plan;
    plan.name = "drop-everything";
    plan.events = {{FaultKind::DropResume, 0, 10'000, -1, 0}};
    return plan;
}

TEST(Verdicts, DroppedResumeOnMonRWithoutRescueIsLostWakeup)
{
    // The acceptance scenario: the producer's update fires the MonR
    // condition, the notification is dropped, and no rescue timeout
    // exists to Mesa-retry the waiter. The flag *holds* in memory
    // while WG0 sleeps — a lost wakeup, not a deadlock.
    core::RunResult r = runFlagKernel(Policy::MonRAll,
                                      dropResumePlan(),
                                      /*rescue=*/50'000'000);
    ASSERT_TRUE(r.deadlocked);
    EXPECT_EQ(r.verdict, Verdict::LostWakeup);
    EXPECT_GE(r.droppedResumes, 1u);
    ASSERT_FALSE(r.lostWakeups.empty());
    EXPECT_EQ(r.lostWakeups[0].wgId, 0);
    EXPECT_GT(r.lostWakeups[0].heldCycles, 0u);
}

TEST(Verdicts, DroppedResumeOnMonNRWithoutRescueIsLostWakeup)
{
    // Waiting atomics close the arm race but cannot survive a
    // dropped notification either once the backstop is gone.
    core::RunResult r = runFlagKernel(Policy::MonNRAll,
                                      dropResumePlan(),
                                      /*rescue=*/50'000'000);
    ASSERT_TRUE(r.deadlocked);
    EXPECT_EQ(r.verdict, Verdict::LostWakeup);
}

TEST(Verdicts, RescueBackstopSurvivesDroppedResumes)
{
    // Same fault, realistic rescue interval: the CP re-activates the
    // waiter, it re-checks the (held) condition and completes. This
    // is the paper's IFP argument under fault injection.
    core::RunResult r = runFlagKernel(Policy::MonRAll,
                                      dropResumePlan(),
                                      /*rescue=*/20'000);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.verdict, Verdict::Complete);
    EXPECT_GE(r.droppedResumes, 1u);
}

// ---------------------------------------------------------------
// Fault application
// ---------------------------------------------------------------

harness::Experiment
faultedExperiment(const std::string &workload, Policy policy,
                  const FaultPlan &plan)
{
    harness::Experiment exp;
    exp.workload = workload;
    exp.policy = policy;
    exp.params = test::smallParams();
    exp.params.iters = 12;
    exp.runCfg = test::testRunConfig(policy);
    exp.runCfg.faultPlan = plan;
    return exp;
}

TEST(FaultApplication, CuChurnDuringDispatchIsSafe)
{
    // An offline edge at t=0 lands inside the dispatch latency of
    // the initial WG wave: the victims are still Dispatching and must
    // be re-queued, not crashed on or stranded.
    FaultPlan plan;
    plan.name = "churn-at-dispatch";
    plan.events = {{FaultKind::CuOffline, 0, 0, -1, 0},
                   {FaultKind::CuOnline, 10, 0, -1, 0}};
    auto result = harness::runExperiment(
        faultedExperiment("SPM_G", Policy::Awg, plan));
    ASSERT_TRUE(result.completed) << result.verdictString();
    EXPECT_TRUE(result.validated) << result.validationError;
    EXPECT_GT(result.forcedPreemptions, 0u);
    EXPECT_EQ(result.injectedFaults, 2u);
}

TEST(FaultApplication, RepeatedChurnCompletesOnRescuePolicies)
{
    FaultPlan plan = core::faultPlanPreset("cu-churn");
    for (Policy policy : {Policy::Timeout, Policy::Awg}) {
        auto result = harness::runExperiment(
            faultedExperiment("FAM_G", policy, plan));
        EXPECT_TRUE(result.completed)
            << core::policyName(policy) << ": "
            << result.verdictString();
        EXPECT_TRUE(result.validated) << result.validationError;
    }
}

TEST(FaultApplication, PressureWindowForcesSpills)
{
    FaultPlan plan = core::faultPlanPreset("syncmon-pressure");
    auto result = harness::runExperiment(
        faultedExperiment("SPM_G", Policy::MonNRAll, plan));
    ASSERT_TRUE(result.completed) << result.verdictString();
    EXPECT_GT(result.spills, 0u)
        << "pressure window never forced the virtualization path";
}

TEST(FaultApplication, LogJamForcesMesaRetries)
{
    FaultPlan plan = core::faultPlanPreset("log-jam");
    auto result = harness::runExperiment(
        faultedExperiment("SPM_G", Policy::MonNRAll, plan));
    ASSERT_TRUE(result.completed) << result.verdictString();
    EXPECT_GT(result.logFullRetries, 0u)
        << "jam window never rejected a spill into a Mesa retry";
}

TEST(FaultApplication, DelayedResumesAreCountedAndSurvived)
{
    FaultPlan plan = core::faultPlanPreset("delayed-resume");
    auto result = harness::runExperiment(
        faultedExperiment("SPM_G", Policy::MonNRAll, plan));
    ASSERT_TRUE(result.completed) << result.verdictString();
    EXPECT_GT(result.delayedResumes, 0u);
}

TEST(FaultApplication, CpStallDefersHousekeeping)
{
    FaultPlan plan = core::faultPlanPreset("cp-stall");
    double deferrals = 0;
    auto result = harness::runExperimentWithSystem(
        faultedExperiment("FAM_G", Policy::Timeout, plan),
        [&](core::GpuSystem &system) {
            deferrals = system.commandProcessor()
                            .stats()
                            .scalar("stallDeferrals")
                            .value();
        });
    ASSERT_TRUE(result.completed) << result.verdictString();
    EXPECT_GT(deferrals, 0.0)
        << "stall window never intercepted a housekeeping pass";
}

TEST(FaultApplication, TraceRecordsEveryInjectedFault)
{
    harness::Experiment exp = faultedExperiment(
        "SPM_G", Policy::Awg, core::faultPlanPreset("kitchen-sink"));
    exp.observe.captureTrace = true;
    std::uint64_t traced = 0;
    auto result = harness::runExperimentWithSystem(
        exp, [&](core::GpuSystem &system) {
            ASSERT_NE(system.traceSink(), nullptr);
            for (const sim::TraceEvent &ev :
                 system.traceSink()->events()) {
                if (ev.kind == sim::TraceEventKind::FaultInjected)
                    ++traced;
            }
        });
    EXPECT_GT(result.injectedFaults, 0u);
    EXPECT_EQ(traced, result.injectedFaults);
}

TEST(FaultApplication, RecoveryAccountingMeasuresRestoreToSwapIn)
{
    harness::Experiment exp;
    exp.workload = "FAM_G";
    exp.policy = Policy::Awg;
    exp.params = test::smallParams();
    exp.params.iters = 12;
    // Two CUs, one lost: the survivor cannot host all 16 WGs, so
    // swap traffic persists long past the restore and the restored
    // CU demonstrably re-enters rotation.
    exp.runCfg.gpu.numCus = 2;
    exp.runCfg.faultPlan = FaultPlan::cuLoss(5, 15);
    auto result = harness::runExperiment(exp);
    ASSERT_TRUE(result.completed);
    ASSERT_FALSE(result.faultRecoveries.empty());
    // 15 us at 2 GHz.
    EXPECT_EQ(result.faultRecoveries[0].restoreCycle, 30'000u);
    EXPECT_LT(result.faultRecoveries[0].cyclesToFirstSwapIn,
              result.gpuCycles);
}

// ---------------------------------------------------------------
// Determinism: (plan, seed) -> byte-identical artifacts
// ---------------------------------------------------------------

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(ChaosDeterminism, StatsJsonIsByteIdenticalForSamePlanAndSeed)
{
    core::ChaosSpec spec;
    FaultPlan plan = core::generateChaosPlan(spec, 7);
    auto run_to = [&](const std::string &path) {
        harness::Experiment exp =
            faultedExperiment("SPM_G", Policy::MonNRAll, plan);
        exp.observe.statsJsonPath = path;
        harness::runExperiment(exp);
    };
    std::string a = ::testing::TempDir() + "chaos_stats_a.json";
    std::string b = ::testing::TempDir() + "chaos_stats_b.json";
    run_to(a);
    run_to(b);
    std::string ja = readFile(a);
    std::string jb = readFile(b);
    ASSERT_FALSE(ja.empty());
    EXPECT_EQ(ja, jb)
        << "same (plan, seed) produced different stats-JSON bytes";
    // The fault fields made it into the artifact.
    EXPECT_NE(ja.find("\"faultPlan\":\"chaos-7\""), std::string::npos);
    EXPECT_NE(ja.find("\"chaosSeed\":7"), std::string::npos);
    EXPECT_NE(ja.find("\"verdict\":"), std::string::npos);
}

harness::CampaignConfig
testCampaignConfig(unsigned jobs)
{
    harness::CampaignConfig cfg;
    cfg.workload = "SPM_G";
    cfg.policies = {Policy::Timeout, Policy::Awg, Policy::MonNRAll};
    cfg.numPlans = 20;
    cfg.baseSeed = 1;
    cfg.params = test::smallParams();
    cfg.params.iters = 8;
    cfg.runCfg.deadlockWindowCycles = 200'000;
    cfg.jobs = jobs;
    return cfg;
}

TEST(ChaosCampaign, TwentyPlansDeterministicAcrossWorkerCounts)
{
    // The acceptance campaign: >= 20 seeded plans x {Timeout, AWG,
    // MonNR-All}, byte-identical CSV between a serial and a parallel
    // execution of the same campaign.
    harness::CampaignReport serial =
        runChaosCampaign(testCampaignConfig(1));
    harness::CampaignReport parallel =
        runChaosCampaign(testCampaignConfig(4));

    std::ostringstream csv_serial, csv_parallel;
    serial.writeCsv(csv_serial);
    parallel.writeCsv(csv_parallel);
    ASSERT_FALSE(csv_serial.str().empty());
    EXPECT_EQ(csv_serial.str(), csv_parallel.str());

    for (const harness::CampaignRun &run : serial.runs)
        EXPECT_NE(run.result.verdict, Verdict::Unknown);

    // Forward-progress ordering: AWG completes every plan Timeout
    // completes.
    EXPECT_TRUE(
        serial.completesAllOf(Policy::Awg, Policy::Timeout));
}

TEST(ChaosCampaign, ServingMixRunsPlansThroughServe)
{
    harness::CampaignConfig cfg = testCampaignConfig(1);
    cfg.numPlans = 3;
    cfg.policies = {Policy::Timeout, Policy::Awg};
    cfg.servingMix = true;

    harness::CampaignReport report = runChaosCampaign(cfg);
    ASSERT_EQ(report.servingRuns.size(),
              cfg.numPlans * cfg.policies.size());
    for (const harness::CampaignServingRun &cell :
         report.servingRuns) {
        EXPECT_NE(cell.verdict, Verdict::Unknown);
        // The chaos generator only emits survivable plans: the
        // swap-capable policies must finish both kernels of the mix
        // with valid memory images.
        EXPECT_EQ(cell.kernelsCompleted, 2u)
            << cell.plan->name << "/"
            << core::policyName(cell.policy);
        EXPECT_TRUE(cell.validated)
            << cell.plan->name << "/"
            << core::policyName(cell.policy);
    }

    // Byte-stable rows: the same campaign produces the same CSV.
    harness::CampaignReport again = runChaosCampaign(cfg);
    std::ostringstream csv_a, csv_b;
    report.writeServingCsv(csv_a);
    again.writeServingCsv(csv_b);
    ASSERT_FALSE(csv_a.str().empty());
    EXPECT_EQ(csv_a.str(), csv_b.str());

    // Opt-in contract: without the flag the section is absent and
    // the classic CSV is unchanged by the new field.
    harness::CampaignConfig off = testCampaignConfig(1);
    off.numPlans = 3;
    off.policies = cfg.policies;
    harness::CampaignReport plain = runChaosCampaign(off);
    EXPECT_TRUE(plain.servingRuns.empty());
    std::ostringstream empty_csv;
    plain.writeServingCsv(empty_csv);
    EXPECT_TRUE(empty_csv.str().empty());
}

// ---------------------------------------------------------------
// Liveness-oracle boundaries
// ---------------------------------------------------------------

TEST(LivenessOracleBounds, AutoLostWakeupBoundTracksWindowSize)
{
    // lostWakeupBoundCycles = 0 means "one deadlock window": a
    // condition that held across exactly one full window is flagged,
    // at any window size.
    for (sim::Cycles window : {50'000ULL, 500'000ULL, 2'000'000ULL}) {
        core::LivenessConfig cfg;
        cfg.lostWakeupBoundCycles = 0;  // auto
        core::LivenessOracle oracle(cfg, /*clock_period=*/1, window);

        core::WaiterProbe probe;
        probe.wgId = 3;
        probe.addr = 0x40;
        probe.expected = 1;
        probe.conditionHolds = true;

        oracle.sample(window, {probe}, 0);
        EXPECT_TRUE(oracle.lostWakeups().empty())
            << "window " << window
            << ": flagged before the bound elapsed";
        oracle.sample(2 * window, {probe}, 0);
        ASSERT_EQ(oracle.lostWakeups().size(), 1u)
            << "window " << window;
        EXPECT_EQ(oracle.lostWakeups()[0].heldCycles, window);
        EXPECT_EQ(oracle.finalizeStall(false),
                  Verdict::LostWakeup);
    }
}

TEST(LivenessOracleBounds, ExplicitBoundOverridesWindow)
{
    const sim::Cycles window = 100'000;
    core::LivenessConfig cfg;
    cfg.lostWakeupBoundCycles = 3 * window;
    core::LivenessOracle oracle(cfg, /*clock_period=*/1, window);

    core::WaiterProbe probe;
    probe.wgId = 0;
    probe.conditionHolds = true;
    oracle.sample(1 * window, {probe}, 0);
    oracle.sample(2 * window, {probe}, 0);
    oracle.sample(3 * window, {probe}, 0);
    EXPECT_TRUE(oracle.lostWakeups().empty());
    // Held for 3 windows (since the first sample) only at t = 4w.
    oracle.sample(4 * window, {probe}, 0);
    ASSERT_EQ(oracle.lostWakeups().size(), 1u);
    EXPECT_EQ(oracle.lostWakeups()[0].heldCycles, 3 * window);
}

} // anonymous namespace
} // namespace ifp
