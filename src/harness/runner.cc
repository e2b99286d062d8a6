#include "harness/runner.hh"

#include "sim/logging.hh"

namespace ifp::harness {

workloads::WorkloadParams
defaultEvalParams()
{
    workloads::WorkloadParams params;
    params.numWgs = 64;       // 8 WGs per CU on the 8-CU machine
    params.wgsPerGroup = 8;   // L: one locality group per CU
    params.wiPerWg = 64;      // n: one wavefront per WG
    params.iters = 4;
    params.csValuCycles = 30;
    return params;
}

core::RunResult
runExperimentWithSystem(const Experiment &exp,
                        const std::function<void(core::GpuSystem &)>
                            &inspect)
{
    workloads::WorkloadPtr workload =
        exp.makeWorkload ? exp.makeWorkload()
                         : workloads::makeWorkload(exp.workload);

    core::RunConfig run_cfg = exp.runCfg;
    run_cfg.policy.policy = exp.policy;
    const workloads::WorkloadParams params =
        workloads::paramsForPolicy(exp.params, run_cfg.policy);
    if (exp.observe.wantsCapture() || traceSmokeEnabled())
        run_cfg.traceEnabled = true;

    core::GpuSystem system(run_cfg);
    isa::Kernel kernel = workload->build(system, params);

    core::RunResult result = system.run(
        kernel,
        [&](const mem::BackingStore &store, std::string &err) {
            return workload->validate(store, params, err);
        });

    if (result.completed && !result.validated) {
        ifp_fatal("%s/%s: validation failed: %s", exp.workload.c_str(),
                  core::policyName(exp.policy),
                  result.validationError.c_str());
    }
    exportRunArtifacts(exp, system, result);
    if (inspect)
        inspect(system);
    return result;
}

core::RunResult
runExperiment(const Experiment &exp)
{
    return runExperimentWithSystem(exp, nullptr);
}

} // namespace ifp::harness
