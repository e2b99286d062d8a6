/**
 * @file
 * Policy explorer: run any benchmark under every waiting policy, in
 * both scenarios, and print the comparison table plus (optionally)
 * the full per-component statistics of one run.
 *
 * Run:
 *   ./build/examples/policy_explorer [benchmark] [--stats POLICY]
 * e.g.
 *   ./build/examples/policy_explorer SLM_G
 *   ./build/examples/policy_explorer TB_LG --stats AWG
 */

#include <cstring>
#include <iostream>

#include "harness/runner.hh"
#include "harness/table.hh"

namespace {

const std::pair<const char *, ifp::core::Policy> kPolicies[] = {
    {"Baseline", ifp::core::Policy::Baseline},
    {"Sleep", ifp::core::Policy::Sleep},
    {"Timeout", ifp::core::Policy::Timeout},
    {"MonRS-All", ifp::core::Policy::MonRSAll},
    {"MonR-All", ifp::core::Policy::MonRAll},
    {"MonNR-All", ifp::core::Policy::MonNRAll},
    {"MonNR-One", ifp::core::Policy::MonNROne},
    {"MinResume", ifp::core::Policy::MinResume},
    {"AWG", ifp::core::Policy::Awg},
};

ifp::harness::Experiment
makeExperiment(const std::string &workload, ifp::core::Policy policy,
               bool oversubscribed)
{
    ifp::harness::Experiment exp;
    exp.workload = workload;
    exp.policy = policy;
    exp.params = ifp::harness::defaultEvalParams();
    if (oversubscribed) {
        exp.params.iters = 16;
        exp.runCfg.faultPlan = ifp::core::FaultPlan::cuLoss(10);
    }
    return exp;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace ifp;

    std::string workload = argc > 1 ? argv[1] : "SPM_G";
    std::string stats_policy;
    for (int i = 2; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--stats") == 0)
            stats_policy = argv[i + 1];
    }

    std::cout << "Policy design space for " << workload << "\n\n";
    harness::TextTable t({"Policy", "Cycles", "Atomics",
                          "CtxSaves", "Oversub cycles",
                          "Oversub saves"});
    for (const auto &[name, policy] : kPolicies) {
        core::RunResult normal = harness::runExperiment(
            makeExperiment(workload, policy, false));
        core::RunResult over = harness::runExperiment(
            makeExperiment(workload, policy, true));
        t.addRow({name, normal.statusString(),
                  std::to_string(normal.atomicInstructions),
                  std::to_string(normal.contextSaves),
                  over.statusString(),
                  std::to_string(over.contextSaves)});
    }
    t.print(std::cout);
    std::cout << "\n(Oversubscribed: one CU pre-empted at t=10us; "
                 "DEADLOCK means the kernel can never finish.)\n";

    if (!stats_policy.empty()) {
        for (const auto &[name, policy] : kPolicies) {
            if (stats_policy != name)
                continue;
            std::cout << "\nFull statistics for " << name << ":\n";
            harness::runExperimentWithSystem(
                makeExperiment(workload, policy, false),
                [](core::GpuSystem &system) {
                    system.dumpStats(std::cout);
                });
        }
    }
    return 0;
}
