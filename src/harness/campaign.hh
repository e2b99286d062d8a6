/**
 * @file
 * Chaos-campaign runner: seeded fault-plan sweeps with liveness
 * verdicts.
 *
 * A campaign generates N fault plans from seeds baseSeed + i,
 * runs every plan against every policy under test through the
 * parallel SweepRunner, and reports the verdict matrix. Results come
 * back in submission order, so campaign tables/CSV are byte-identical
 * between serial and parallel execution — and, because every fault is
 * an event-queue event derived from (plan, seed), between repeated
 * runs of the same campaign.
 */

#ifndef IFP_HARNESS_CAMPAIGN_HH
#define IFP_HARNESS_CAMPAIGN_HH

#include <ostream>
#include <vector>

#include "core/fault_plan.hh"
#include "harness/runner.hh"

namespace ifp::harness {

/** Configuration of one chaos campaign. */
struct CampaignConfig
{
    std::string workload = "SPM_G";
    /** Policies each plan is run against. */
    std::vector<core::Policy> policies = {core::Policy::Timeout,
                                          core::Policy::Awg,
                                          core::Policy::MonNRAll};
    /** Number of generated fault plans. */
    unsigned numPlans = 20;
    /** Plan i uses seed baseSeed + i. */
    std::uint64_t baseSeed = 1;

    workloads::WorkloadParams params;
    core::RunConfig runCfg;

    /** Sweep worker count (0 = IFP_BENCH_JOBS / hardware). */
    unsigned jobs = 0;

    /**
     * Also drive every plan through serve() with a two-kernel mix
     * (`workload` + BankAccount enqueued together), exercising the
     * fault engine against the CP admission scheduler rather than
     * the single-kernel run loop. Opt-in: with it off, campaign
     * tables and CSV stay byte-identical to earlier releases.
     */
    bool servingMix = false;
};

/** One (plan, policy) cell of the campaign matrix. */
struct CampaignRun
{
    const core::FaultPlan *plan = nullptr;
    core::Policy policy{};
    core::RunResult result;
};

/** One (plan, policy) serve() cell of the serving-mix matrix. */
struct CampaignServingRun
{
    const core::FaultPlan *plan = nullptr;
    core::Policy policy{};
    core::Verdict verdict = core::Verdict::Unknown;
    /** Kernels of the mix that completed (0..2). */
    unsigned kernelsCompleted = 0;
    /** Both completed kernels' memory images validated. */
    bool validated = false;
    std::uint64_t gpuCycles = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t swapIns = 0;
};

/** Everything a finished campaign produced. */
struct CampaignReport
{
    std::vector<core::FaultPlan> plans;
    std::vector<core::Policy> policies;
    /** Plan-major: runs[plan_idx * policies.size() + policy_idx]. */
    std::vector<CampaignRun> runs;

    /**
     * Serving-mix cells, plan-major like `runs`. Empty unless
     * CampaignConfig::servingMix was set.
     */
    std::vector<CampaignServingRun> servingRuns;

    const CampaignRun &
    run(std::size_t plan_idx, std::size_t policy_idx) const
    {
        return runs[plan_idx * policies.size() + policy_idx];
    }

    /**
     * The campaign's forward-progress ordering check: @p subject
     * completes every plan @p reference completes. Plans where the
     * reference itself stalls don't count against the subject.
     */
    bool completesAllOf(core::Policy subject,
                        core::Policy reference) const;

    /** Verdicts per plan, one row per plan (aligned text + CSV). */
    void writeTable(std::ostream &os) const;
    void writeCsv(std::ostream &os) const;

    /** Serving-mix cells as CSV (empty output without servingMix). */
    void writeServingCsv(std::ostream &os) const;
};

/** Generate the plans and run the full matrix. */
CampaignReport runChaosCampaign(const CampaignConfig &cfg);

} // namespace ifp::harness

#endif // IFP_HARNESS_CAMPAIGN_HH
