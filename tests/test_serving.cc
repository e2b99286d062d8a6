/**
 * @file
 * Multi-tenant serving layer: per-kernel dispatch contexts, the CP
 * admission/preemption scheduler, the serving harness and the legacy
 * compatibility contracts around them.
 *
 *  - determinism: the same (config, seed) serving scenario produces a
 *    byte-identical ifp-serving-v1 JSON report on every rerun,
 *  - priority preemption: a high-priority arrival evicts running WGs
 *    of a resident low-priority kernel through the WG drain /
 *    context-save machinery,
 *  - legacy equivalence: run() and a single-kernel enqueue+serve()
 *    produce byte-identical stats-JSON for all 12 workloads,
 *  - admission: "serial" admission serializes kernels,
 *  - the halted-WG rule: CU loss or revocation never pre-empts a WG
 *    whose wavefronts have all halted (its completion is queued), so
 *    a completion never lands mid-drain,
 *  - the FaultPlan::cuLoss factory.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/observe.hh"
#include "harness/serving.hh"
#include "sim/json.hh"
#include "test_helpers.hh"

namespace ifp {
namespace {

/** A small two-tenant mix that overlaps heavily in time. */
harness::ServingConfig
twoTenantConfig()
{
    harness::ServingConfig cfg;
    cfg.policy = core::Policy::Awg;
    cfg.admission = "priority";
    cfg.numLaunches = 8;
    cfg.seed = 7;
    cfg.meanInterarrivalUs = 3.0;
    cfg.params = harness::defaultServingParams();
    cfg.tenants = {
        harness::ServingTenant{"fg", "HT", 2, 1'000'000, 1.0},
        harness::ServingTenant{"bg", "BA", 0, 0, 1.0},
    };
    return cfg;
}

std::string
servingJson(const harness::ServingReport &report)
{
    std::ostringstream os;
    harness::writeServingJson(os, report);
    return os.str();
}

TEST(Serving, TwoTenantRerunIsByteIdentical)
{
    harness::ServingConfig cfg = twoTenantConfig();
    std::string a = servingJson(harness::runServingScenario(cfg));
    std::string b = servingJson(harness::runServingScenario(cfg));
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"schema\": \"ifp-serving-v1\""),
              std::string::npos);
}

TEST(Serving, ReportParsesBackWithSchemaAndEscapedTenant)
{
    harness::ServingConfig cfg = twoTenantConfig();
    cfg.tenants[0].name = "lat\"ency";
    std::string text = servingJson(harness::runServingScenario(cfg));
    std::optional<sim::json::Value> doc = sim::json::tryParse(text);
    ASSERT_TRUE(doc.has_value()) << text;
    EXPECT_EQ(doc->find("schema")->string, "ifp-serving-v1");
    const sim::json::Value *kernels = doc->find("kernels");
    ASSERT_NE(kernels, nullptr);
    bool found = false;
    for (const sim::json::Value &k : kernels->array)
        found = found || k.find("tenant")->string == "lat\"ency";
    EXPECT_TRUE(found);
}

TEST(Serving, SeedChangesTheSchedule)
{
    harness::ServingConfig cfg = twoTenantConfig();
    std::string a = servingJson(harness::runServingScenario(cfg));
    cfg.seed = 8;
    std::string b = servingJson(harness::runServingScenario(cfg));
    EXPECT_NE(a, b);
}

TEST(Serving, PriorityArrivalPreemptsResidentLowPriority)
{
    // One low-priority kernel owns the whole machine; a high-priority
    // kernel arrives mid-run. Pure priority carving (floor 0) hands
    // every CU to the newcomer, which requires evicting running WGs
    // of the resident kernel via drain + context save.
    core::RunConfig rc = test::testRunConfig(core::Policy::Awg);
    rc.cp.admission.maxResidentKernels = 4;
    rc.cp.admission.cuShareFloor = 0;
    core::GpuSystem system(rc);

    workloads::WorkloadParams params = test::smallParams();
    params.style = core::styleFor(core::Policy::Awg);
    params.iters = 6;

    auto low = workloads::makeWorkload("BA");
    isa::Kernel low_k = low->build(system, params);
    gpu::LaunchOptions low_opts;
    low_opts.tenant = "batch";
    low_opts.priority = 0;
    int low_id = system.enqueueKernel(low_k, low_opts);

    auto high = workloads::makeWorkload("HT");
    isa::Kernel high_k = high->build(system, params);
    gpu::LaunchOptions high_opts;
    high_opts.tenant = "latency";
    high_opts.priority = 5;
    int high_id =
        system.enqueueKernelAt(high_k, high_opts,
                               sim::ticksFromMicroseconds(3));

    core::ServeResult res = system.serve();
    ASSERT_TRUE(res.run.completed) << res.run.statusString();

    const core::KernelRunStat &lo = res.kernels[low_id];
    const core::KernelRunStat &hi = res.kernels[high_id];
    ASSERT_TRUE(lo.completed);
    ASSERT_TRUE(hi.completed);
    EXPECT_GT(lo.preemptions, 0u)
        << "the resident low-priority kernel was never evicted";
    EXPECT_EQ(hi.preemptions, 0u);
    EXPECT_GT(lo.cusLost, 0u);
    // The preempted WGs must come back and finish.
    EXPECT_EQ(lo.wgsCompleted, lo.numWgs);
    EXPECT_GT(lo.swapIns, 0u);

    std::string err;
    EXPECT_TRUE(low->validate(system.memory(), params, err)) << err;
    EXPECT_TRUE(high->validate(system.memory(), params, err)) << err;
}

TEST(Serving, SerialAdmissionSerializes)
{
    core::RunConfig rc = test::testRunConfig(core::Policy::Awg);
    rc.cp.admission.maxResidentKernels = 1;
    rc.cp.admission.cuShareFloor = 0;
    core::GpuSystem system(rc);

    workloads::WorkloadParams params = test::smallParams();
    params.style = core::styleFor(core::Policy::Awg);

    auto a = workloads::makeWorkload("SPM_G");
    isa::Kernel a_k = a->build(system, params);
    int a_id = system.enqueueKernel(a_k, {});
    auto b = workloads::makeWorkload("SPM_G");
    isa::Kernel b_k = b->build(system, params);
    gpu::LaunchOptions b_opts;
    b_opts.priority = 9;  // priority must not bypass the residency cap
    int b_id = system.enqueueKernelAt(b_k, b_opts,
                                      sim::ticksFromMicroseconds(1));

    core::ServeResult res = system.serve();
    ASSERT_TRUE(res.run.completed) << res.run.statusString();
    const core::KernelRunStat &first = res.kernels[a_id];
    const core::KernelRunStat &second = res.kernels[b_id];
    ASSERT_TRUE(first.completed);
    ASSERT_TRUE(second.completed);
    EXPECT_GE(second.admitCycle, first.completeCycle)
        << "serial admission must not overlap kernels";
    EXPECT_GT(second.queueCycles, 0u);
    EXPECT_EQ(first.preemptions, 0u);
    EXPECT_EQ(second.preemptions, 0u);

    std::string err;
    EXPECT_TRUE(a->validate(system.memory(), params, err)) << err;
    EXPECT_TRUE(b->validate(system.memory(), params, err)) << err;
}

/** completionOrder names every context once, in completion time. */
void
expectCompletionOrderValid(const harness::ServingReport &report)
{
    std::vector<int> seen(report.kernels.size(), 0);
    sim::Cycles last = 0;
    for (int ctx : report.completionOrder) {
        ASSERT_GE(ctx, 0);
        ASSERT_LT(static_cast<std::size_t>(ctx), report.kernels.size());
        ++seen[static_cast<std::size_t>(ctx)];
        const core::KernelRunStat &ks =
            report.kernels[static_cast<std::size_t>(ctx)];
        EXPECT_TRUE(ks.completed) << "ctx" << ctx;
        EXPECT_GE(ks.completeCycle, last) << "ctx" << ctx;
        last = ks.completeCycle;
    }
    for (std::size_t ctx = 0; ctx < seen.size(); ++ctx)
        EXPECT_EQ(seen[ctx], 1) << "ctx" << ctx;
}

TEST(Serving, ConcurrentKernelsShareCusUnderFloor)
{
    harness::ServingConfig cfg = twoTenantConfig();
    cfg.admission = "share";
    harness::ServingReport report = harness::runServingScenario(cfg);
    EXPECT_TRUE(report.allCompleted) << report.verdict;
    EXPECT_GT(report.preemptions, 0u)
        << "a contended mix must preempt under CU carving";
    EXPECT_GT(report.cuReassignments, 0u);
    EXPECT_GT(report.admissionPasses, 0u);
    EXPECT_GT(report.fairness, 0.0);
    EXPECT_LE(report.fairness, 1.0);
    expectCompletionOrderValid(report);
}

// ---------------------------------------------------------------------
// Legacy equivalence: run() == single-kernel enqueue + serve()
// ---------------------------------------------------------------------

std::string
statsJsonFor(const std::string &workload, bool via_serve)
{
    harness::Experiment exp;
    exp.workload = workload;
    exp.policy = core::Policy::Awg;
    exp.params = test::smallParams();
    exp.params.style = core::styleFor(exp.policy);

    core::RunConfig rc = test::testRunConfig(exp.policy);
    core::GpuSystem system(rc);
    auto w = workloads::makeWorkload(workload);
    isa::Kernel k = w->build(system, exp.params);

    core::RunResult result;
    if (via_serve) {
        system.enqueueKernel(k, {});
        result = system.serve().run;
    } else {
        result = system.run(k);
    }
    EXPECT_TRUE(result.completed) << workload << ": "
                                  << result.statusString();

    std::ostringstream os;
    harness::writeStatsJson(os, exp, system, result);
    return os.str();
}

TEST(Serving, LegacyRunEqualsSingleKernelServe)
{
    for (const std::string &w : workloads::heteroSyncAbbrevs()) {
        EXPECT_EQ(statsJsonFor(w, false), statsJsonFor(w, true))
            << w << ": run() and enqueue+serve() diverged";
    }
}

// ---------------------------------------------------------------------
// The halted-WG rule (completion versus drain)
// ---------------------------------------------------------------------

TEST(ServingRace, CuLossSkipsAWgWhoseWavefrontsAllHalted)
{
    // Step until some Running WG has halted every wavefront: its
    // cu.wgDone completion is queued for this tick but has not run.
    core::GpuSystem system(test::testRunConfig(core::Policy::Awg));
    workloads::WorkloadParams params = test::smallParams();
    params.style = core::styleFor(core::Policy::Awg);
    auto workload = workloads::makeWorkload("SPM_G");
    isa::Kernel kernel = workload->build(system, params);
    system.enqueueKernel(kernel);

    const gpu::Dispatcher &dispatcher = system.dispatcher();
    const gpu::WorkGroup *halted = nullptr;
    while (!halted && system.eventq().step()) {
        for (const auto &wg : dispatcher.workgroups()) {
            if (wg->state == gpu::WgState::Running && wg->complete()) {
                halted = wg.get();
                break;
            }
        }
    }
    ASSERT_NE(halted, nullptr)
        << "no WG was seen between its last halt and its completion";

    // Losing the CU now must leave the halted WG to its completion:
    // pre-empting it would queue a context save that completes after
    // the WG is already Done.
    system.dispatcher().offlineCu(static_cast<unsigned>(halted->cuId));
    core::ServeResult res = system.serve();
    ASSERT_EQ(res.run.verdict, core::Verdict::Complete)
        << res.run.verdictString();
    std::string err;
    EXPECT_TRUE(workload->validate(system.memory(), params, err)) << err;
}

/** A 1000-launch AWG stream at the serving defaults. */
harness::ServingReport
serveStream(std::uint64_t seed, const std::string &admission)
{
    harness::ServingConfig cfg;
    cfg.policy = core::Policy::Awg;
    cfg.admission = admission;
    cfg.numLaunches = 1000;
    cfg.seed = seed;
    cfg.meanInterarrivalUs = 5.0;
    cfg.params = harness::defaultServingParams();
    return harness::runServingScenario(cfg);
}

// Streams on which CU revocation once caught a halted WG before its
// completion ran (runServingScenario validates every launch).
TEST(ServingRace, Stream60UnderPriorityAdmissionCompletes)
{
    harness::ServingReport report = serveStream(60, "priority");
    EXPECT_TRUE(report.allCompleted) << report.verdict;
    expectCompletionOrderValid(report);
}

TEST(ServingRace, Stream457UnderShareAdmissionCompletes)
{
    harness::ServingReport report = serveStream(457, "share");
    EXPECT_TRUE(report.allCompleted) << report.verdict;
    expectCompletionOrderValid(report);
}

// ---------------------------------------------------------------------
// FaultPlan::cuLoss factory
// ---------------------------------------------------------------------

TEST(CuLossFactory, BuildsTheLossRestorePair)
{
    core::FaultPlan plan = core::FaultPlan::cuLoss(10, 40, 2);
    EXPECT_EQ(plan.name, "cuLoss");
    ASSERT_EQ(plan.events.size(), 2u);
    EXPECT_EQ(plan.events[0].kind, core::FaultKind::CuOffline);
    EXPECT_EQ(plan.events[0].atUs, 10u);
    EXPECT_EQ(plan.events[0].cuId, 2);
    EXPECT_EQ(plan.events[1].kind, core::FaultKind::CuOnline);
    EXPECT_EQ(plan.events[1].atUs, 40u);
    EXPECT_EQ(plan.events[1].cuId, 2);
}

TEST(CuLossFactory, OmitsARestoreThatNeverHappens)
{
    core::FaultPlan never = core::FaultPlan::cuLoss(50);
    ASSERT_EQ(never.events.size(), 1u);
    EXPECT_EQ(never.events[0].kind, core::FaultKind::CuOffline);
    EXPECT_EQ(never.events[0].cuId, -1);

    // A restore at or before the loss is no restore at all.
    core::FaultPlan bogus = core::FaultPlan::cuLoss(50, 50);
    EXPECT_EQ(bogus.events.size(), 1u);
}

TEST(CuLossFactory, PlanPathCountsItsFaults)
{
    // The §VI scenario runs through the fault engine: mid-run CU loss
    // forces preemptions, AWG recovers and completes, and the applied
    // event is counted.
    harness::Experiment exp;
    exp.workload = "FAM_G";
    exp.policy = core::Policy::Awg;
    exp.params = test::smallParams();
    exp.params.iters = 12;
    exp.runCfg.faultPlan = core::FaultPlan::cuLoss(5);
    core::RunResult result = harness::runExperiment(exp);
    ASSERT_TRUE(result.completed) << result.statusString();
    EXPECT_TRUE(result.validated) << result.validationError;
    EXPECT_GT(result.forcedPreemptions, 0u);
    EXPECT_EQ(result.injectedFaults, 1u);
}

} // namespace
} // namespace ifp
