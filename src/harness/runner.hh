/**
 * @file
 * Experiment runner: one call = one (benchmark, policy, scenario)
 * simulation, with the codegen style and controller derived from the
 * policy. The benches and tests drive all paper experiments through
 * this interface.
 */

#ifndef IFP_HARNESS_RUNNER_HH
#define IFP_HARNESS_RUNNER_HH

#include <functional>
#include <string>

#include "core/gpu_system.hh"
#include "core/run_result.hh"
#include "harness/observe.hh"
#include "workloads/registry.hh"

namespace ifp::harness {

/** Everything configuring one experiment run. */
struct Experiment
{
    std::string workload = "SPM_G";
    core::Policy policy = core::Policy::Awg;

    /**
     * Optional workload factory. When set it overrides the registry
     * lookup of `workload`, so sweeps can vary constructor parameters
     * the registry defaults (queue depth, producer:consumer ratio).
     * `workload` stays the experiment's label either way.
     */
    std::function<workloads::WorkloadPtr()> makeWorkload;

    /** Workload geometry (style and backoff cap come from the policy). */
    workloads::WorkloadParams params;

    /**
     * Machine/scenario configuration (policy enum overwritten from
     * `policy` above). Policy parameters live here, in
     * runCfg.policy: e.g. Figure 8 sweeps
     * runCfg.policy.timeoutIntervalCycles and Figure 7 sweeps
     * runCfg.policy.sleepMaxBackoffCycles.
     */
    core::RunConfig runCfg;

    /** Observability outputs (trace / stats-JSON files). */
    ObserveOptions observe;
};

/** Run one experiment and return its result. */
core::RunResult runExperiment(const Experiment &exp);

/**
 * Run one experiment with a caller-provided system hook, letting
 * tests inspect the composed GpuSystem after the run. @p inspect may
 * be null.
 */
core::RunResult
runExperimentWithSystem(const Experiment &exp,
                        const std::function<void(core::GpuSystem &)>
                            &inspect);

/** The default evaluation geometry used by all paper benches. */
workloads::WorkloadParams defaultEvalParams();

} // namespace ifp::harness

#endif // IFP_HARNESS_RUNNER_HH
