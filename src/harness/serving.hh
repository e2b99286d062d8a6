/**
 * @file
 * Multi-tenant kernel-stream serving scenarios.
 *
 * Builds one GpuSystem, pre-builds a stream of kernels from a tenant
 * mix (each launch gets its own workload instance and therefore its
 * own buffers), enqueues them with seeded Poisson arrivals and
 * per-tenant priorities/deadlines, and serves the stream through the
 * CP admission scheduler. The report carries the serving metrics the
 * paper's Figure 2 motivates: turnaround percentiles, SLO misses,
 * preemption counts and cross-tenant fairness.
 *
 * Everything is deterministic from (config, seed): arrivals come from
 * a seeded sim::Rng, admission runs synchronously, and the JSON
 * writer's number rule is deterministic — the same config produces a
 * byte-identical report on every rerun and across IFP_BENCH_JOBS.
 *
 * Per-kernel statistics come from the dispatcher's lifecycle record
 * and the DispatchContext stat shadows after the run; nothing polls
 * the dispatcher while it runs.
 */

#ifndef IFP_HARNESS_SERVING_HH
#define IFP_HARNESS_SERVING_HH

#include <ostream>
#include <string>
#include <vector>

#include "core/gpu_system.hh"
#include "workloads/workload.hh"

namespace ifp::harness {

/** One tenant of the serving mix. */
struct ServingTenant
{
    std::string name;
    /** Workload abbrev (registry name), e.g. "HT", "SPM_G", "BA". */
    std::string workload;
    int priority = 0;
    /** Turnaround SLO in GPU cycles (0 = no deadline). */
    sim::Cycles deadlineCycles = 0;
    /** Relative arrival weight in the mix. */
    double weight = 1.0;
};

/** The paper-motivated default mix: latency / throughput / batch. */
std::vector<ServingTenant> defaultServingTenants();

/** Configuration of one serving scenario. */
struct ServingConfig
{
    core::Policy policy = core::Policy::Awg;
    /**
     * Admission policy name: "serial" (one resident kernel at a
     * time), "share" (up to 4 residents, CU-share floor 2) or
     * "priority" (up to 4 residents, pure priority cascade, floor 0).
     */
    std::string admission = "share";
    unsigned numLaunches = 20;
    std::uint64_t seed = 1;
    /** Mean Poisson inter-arrival gap, microseconds. */
    double meanInterarrivalUs = 10.0;
    /** Tenant mix; empty = defaultServingTenants(). */
    std::vector<ServingTenant> tenants;
    /** Per-kernel geometry (style is overwritten from the policy). */
    workloads::WorkloadParams params;
    /** Machine configuration (admission knobs are overwritten). */
    core::RunConfig runCfg;
    /** Chrome-trace destination ("" = no trace file). */
    std::string traceOutPath;
};

/** Small serving kernels (quarter-size grid, short critical section). */
workloads::WorkloadParams defaultServingParams();

/** The outcome of one serving scenario. */
struct ServingReport
{
    std::string policy;      //!< waiting-policy name
    std::string admission;   //!< admission policy name
    unsigned launches = 0;
    std::uint64_t seed = 0;
    std::string verdict;     //!< RunResult verdict string
    bool allCompleted = false;
    std::uint64_t makespanCycles = 0;

    /// @name Turnaround aggregates over completed kernels, GPU cycles
    /// @{
    std::uint64_t p50TurnaroundCycles = 0;
    std::uint64_t p99TurnaroundCycles = 0;
    std::uint64_t maxQueueCycles = 0;
    /// @}

    unsigned sloTracked = 0;  //!< launches with a deadline
    unsigned sloMisses = 0;

    /// @name Scheduling activity (summed over kernels / machine-wide)
    /// @{
    std::uint64_t preemptions = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t cuReassignments = 0;
    std::uint64_t admissionPasses = 0;
    /// @}

    /**
     * Jain fairness index over per-tenant mean turnaround (tenants
     * with at least one completed kernel); 1.0 = every tenant sees
     * the same latency, 1/N = one tenant absorbs all the queueing.
     */
    double fairness = 0.0;

    /** Completion order of context ids (from the dispatcher). */
    std::vector<int> completionOrder;

    /** Per-kernel outcomes, in ctx-id (creation) order. */
    std::vector<core::KernelRunStat> kernels;

    core::RunResult run;
};

/** Run one serving scenario to completion (or deadlock/budget). */
ServingReport runServingScenario(const ServingConfig &cfg);

/**
 * Serialize @p report as one indented JSON object (schema
 * "ifp-serving-v1"), byte-identical across reruns of the same
 * (config, seed).
 */
void writeServingJson(std::ostream &os, const ServingReport &report);

/** Human-readable one-line-per-report comparison table. */
void writeServingTable(std::ostream &os,
                       const std::vector<ServingReport> &reports);

} // namespace ifp::harness

#endif // IFP_HARNESS_SERVING_HH
