#include "harness/campaign.hh"

#include <algorithm>

#include "harness/sweep.hh"
#include "harness/table.hh"
#include "workloads/registry.hh"

namespace ifp::harness {

namespace {

/**
 * One serve() run of the two-kernel mix under @p plan: both kernels
 * enqueued at tick 0, the CP admission scheduler shares the machine,
 * and the plan's faults land on whichever contexts are resident.
 */
CampaignServingRun
runServingMix(const CampaignConfig &cfg, const core::FaultPlan &plan,
              core::Policy policy)
{
    CampaignServingRun cell;
    cell.plan = &plan;
    cell.policy = policy;

    core::RunConfig run_cfg = cfg.runCfg;
    run_cfg.policy.policy = policy;
    run_cfg.faultPlan = plan;

    const workloads::WorkloadParams params =
        workloads::paramsForPolicy(cfg.params, run_cfg.policy);

    core::GpuSystem system(run_cfg);
    workloads::WorkloadPtr primary =
        workloads::makeWorkload(cfg.workload);
    workloads::WorkloadPtr mix =
        workloads::makeWorkload(cfg.mixWorkload);
    system.enqueueKernel(primary->build(system, params));
    system.enqueueKernel(mix->build(system, params));

    core::ServeResult serve = system.serve();
    cell.verdict = serve.run.verdict;
    cell.gpuCycles = serve.run.gpuCycles;
    for (const core::KernelRunStat &k : serve.kernels) {
        if (k.completed)
            ++cell.kernelsCompleted;
        cell.preemptions += k.preemptions;
        cell.swapIns += k.swapIns;
    }
    if (cell.kernelsCompleted == serve.kernels.size()) {
        std::string error;
        cell.validated =
            primary->validate(system.memory(), params, error) &&
            mix->validate(system.memory(), params, error);
    }
    return cell;
}

} // namespace

CampaignReport
runChaosCampaign(const CampaignConfig &cfg)
{
    CampaignReport report;
    report.policies = cfg.policies;

    core::ChaosSpec spec = cfg.chaos;
    spec.numCus = cfg.runCfg.gpu.numCus;

    report.plans.reserve(cfg.numPlans);
    for (unsigned i = 0; i < cfg.numPlans; ++i)
        report.plans.push_back(
            core::generateChaosPlan(spec, cfg.baseSeed + i));

    SweepRunner sweep(cfg.jobs);
    for (const core::FaultPlan &plan : report.plans) {
        for (core::Policy policy : cfg.policies) {
            Experiment exp;
            exp.workload = cfg.workload;
            exp.policy = policy;
            exp.params = cfg.params;
            exp.runCfg = cfg.runCfg;
            exp.runCfg.faultPlan = plan;
            sweep.enqueue(std::move(exp));
        }
    }
    const std::vector<core::RunResult> &results = sweep.run();

    report.runs.reserve(results.size());
    std::size_t idx = 0;
    for (const core::FaultPlan &plan : report.plans) {
        for (core::Policy policy : cfg.policies) {
            report.runs.push_back(
                CampaignRun{&plan, policy, results[idx]});
            ++idx;
        }
    }

    // Serving-mix pass: serial on purpose — each serve() is one
    // deterministic event-queue run, and submission order (plan-
    // major, like `runs`) is the row order, so the CSV is
    // byte-stable without any cross-run coordination.
    if (cfg.servingMix) {
        report.servingRuns.reserve(report.plans.size() *
                                   cfg.policies.size());
        for (const core::FaultPlan &plan : report.plans) {
            for (core::Policy policy : cfg.policies) {
                report.servingRuns.push_back(
                    runServingMix(cfg, plan, policy));
            }
        }
    }
    return report;
}

bool
CampaignReport::completesAllOf(core::Policy subject,
                               core::Policy reference) const
{
    auto index_of = [&](core::Policy p) -> std::size_t {
        auto it = std::find(policies.begin(), policies.end(), p);
        return static_cast<std::size_t>(it - policies.begin());
    };
    std::size_t subj = index_of(subject);
    std::size_t ref = index_of(reference);
    if (subj >= policies.size() || ref >= policies.size())
        return false;
    for (std::size_t p = 0; p < plans.size(); ++p) {
        if (run(p, ref).result.completed &&
            !run(p, subj).result.completed)
            return false;
    }
    return true;
}

void
CampaignReport::writeTable(std::ostream &os) const
{
    std::vector<std::string> headers = {"plan", "seed", "faults"};
    for (core::Policy p : policies)
        headers.push_back(core::policyName(p));
    TextTable table(std::move(headers));
    for (std::size_t i = 0; i < plans.size(); ++i) {
        std::vector<std::string> row = {
            plans[i].name,
            std::to_string(plans[i].seed),
            std::to_string(plans[i].events.size()),
        };
        for (std::size_t p = 0; p < policies.size(); ++p)
            row.push_back(run(i, p).result.verdictString());
        table.addRow(std::move(row));
    }
    table.print(os);
}

void
CampaignReport::writeCsv(std::ostream &os) const
{
    os << "plan,seed,policy,verdict,completed,gpuCycles,"
          "injectedFaults,forcedPreemptions,droppedResumes,"
          "delayedResumes,spills,logFullRetries,lostWakeups,"
          "recoveries\n";
    for (std::size_t i = 0; i < plans.size(); ++i) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const core::RunResult &r = run(i, p).result;
            os << plans[i].name << ',' << plans[i].seed << ','
               << core::policyName(policies[p]) << ','
               << core::verdictName(r.verdict) << ','
               << (r.completed ? 1 : 0) << ',' << r.gpuCycles << ','
               << r.injectedFaults << ',' << r.forcedPreemptions << ','
               << r.droppedResumes << ',' << r.delayedResumes << ','
               << r.spills << ',' << r.logFullRetries << ','
               << r.lostWakeups.size() << ','
               << r.faultRecoveries.size() << '\n';
        }
    }
}

void
CampaignReport::writeServingCsv(std::ostream &os) const
{
    if (servingRuns.empty())
        return;
    os << "plan,seed,policy,verdict,kernelsCompleted,validated,"
          "gpuCycles,preemptions,swapIns\n";
    for (const CampaignServingRun &cell : servingRuns) {
        os << cell.plan->name << ',' << cell.plan->seed << ','
           << core::policyName(cell.policy) << ','
           << core::verdictName(cell.verdict) << ','
           << cell.kernelsCompleted << ','
           << (cell.validated ? 1 : 0) << ',' << cell.gpuCycles
           << ',' << cell.preemptions << ',' << cell.swapIns
           << '\n';
    }
}

} // namespace ifp::harness
