#include "harness/results_io.hh"

#include "sim/trace_sink.hh"

namespace ifp::harness {

void
writeResultJson(std::ostream &os, const Experiment &exp,
                const core::RunResult &result)
{
    sim::json::Writer w(os);
    writeResultJson(w, exp, result);
}

void
writeResultJson(sim::json::Writer &w, const Experiment &exp,
                const core::RunResult &r)
{
    w.beginObject().key("schema").value("ifp-result-v1");
    w.key("workload").value(exp.workload);
    w.key("policy").value(core::policyName(exp.policy));
    w.key("oversubscribed").value(exp.runCfg.faultPlan.losesCu());
    w.key("numWgs").value(exp.params.numWgs);
    w.key("wgsPerGroup").value(exp.params.wgsPerGroup);
    w.key("iters").value(exp.params.iters);
    w.key("completed").value(r.completed);
    w.key("deadlocked").value(r.deadlocked);
    w.key("verdict").value(core::verdictName(r.verdict));
    w.key("validated").value(r.validated);
    w.key("gpuCycles").value(r.gpuCycles);
    w.key("instructions").value(r.instructions);
    w.key("atomicInstructions").value(r.atomicInstructions);
    w.key("waitingAtomics").value(r.waitingAtomics);
    w.key("armWaits").value(r.armWaits);
    w.key("sleeps").value(r.sleeps);
    w.key("contextSaves").value(r.contextSaves);
    w.key("contextRestores").value(r.contextRestores);
    w.key("forcedPreemptions").value(r.forcedPreemptions);
    w.key("condResumesAll").value(r.condResumesAll);
    w.key("condResumesOne").value(r.condResumesOne);
    w.key("cpRescues").value(r.cpRescues);
    w.key("predictedResumes").value(r.predictedResumes);
    w.key("mispredictedResumes").value(r.mispredictedResumes);
    w.key("spills").value(r.spills);
    w.key("logFullRetries").value(r.logFullRetries);
    w.key("faultPlan").value(exp.runCfg.faultPlan.name);
    w.key("chaosSeed").value(exp.runCfg.faultPlan.seed);
    w.key("injectedFaults").value(r.injectedFaults);
    w.key("droppedResumes").value(r.droppedResumes);
    w.key("delayedResumes").value(r.delayedResumes);
    w.key("lostWakeups").beginArray();
    for (const core::LostWakeupRecord &lw : r.lostWakeups) {
        w.beginObject().key("wg").value(lw.wgId);
        w.key("addr").value(lw.addr).key("expected").value(lw.expected);
        w.key("heldCycles").value(lw.heldCycles).endObject();
    }
    w.endArray().key("faultRecoveries").beginArray();
    for (const core::FaultRecovery &fr : r.faultRecoveries) {
        w.beginObject().key("restoreCycle").value(fr.restoreCycle);
        w.key("cyclesToFirstSwapIn").value(fr.cyclesToFirstSwapIn);
        w.endObject();
    }
    w.endArray();
    w.key("maxConditions").value(r.maxConditions);
    w.key("maxWaiters").value(r.maxWaiters);
    w.key("maxMonitoredLines").value(r.maxMonitoredLines);
    w.key("maxLogEntries").value(r.maxLogEntries);
    w.key("totalWgExecCycles").value(r.totalWgExecCycles);
    w.key("totalWgWaitCycles").value(r.totalWgWaitCycles);
    w.key("wgLifetimeCycles").value(r.wgLifetimeCycles);
    w.key("stallCycles").beginObject();
    for (std::size_t i = 0; i < sim::numStallReasons; ++i) {
        w.key(sim::stallReasonName(static_cast<sim::StallReason>(i)))
            .value(r.wgCycleBreakdown[i]);
    }
    w.endObject().endObject();
}

} // namespace ifp::harness
