/**
 * @file
 * The paper's headline scenario: a kernel using inter-WG
 * synchronization loses a CU mid-run (kernel-level pre-emption).
 *
 * On a current GPU (Baseline) the pre-empted WGs can never be
 * switched back in; if any of them is needed — a ticket holder, a
 * barrier participant — the kernel deadlocks even though the code is
 * correct. AWG's cooperative scheduling recovers: waiting WGs yield
 * their resources, the stranded WGs rotate back in, and the kernel
 * completes.
 *
 * Run: ./build/examples/oversubscription [benchmark]
 */

#include <cstdio>
#include <iostream>

#include "harness/runner.hh"

namespace {

ifp::core::RunResult
runScenario(const std::string &benchmark, ifp::core::Policy policy)
{
    ifp::harness::Experiment exp;
    exp.workload = benchmark;
    exp.policy = policy;
    exp.params = ifp::harness::defaultEvalParams();
    exp.params.iters = 16;  // long enough to be mid-run
    // CU 7 (the last) is lost at t=10us.
    exp.runCfg.faultPlan = ifp::core::FaultPlan::cuLoss(10);
    return ifp::harness::runExperiment(exp);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace ifp;
    std::string benchmark = argc > 1 ? argv[1] : "FAM_G";

    std::cout
        << "Scenario: " << benchmark << " on 8 CUs; at t=10us the\n"
        << "kernel scheduler pre-empts every WG resident on CU 7\n"
        << "and takes the CU away (higher-priority work).\n\n";

    core::RunResult base = runScenario(benchmark,
                                       core::Policy::Baseline);
    std::cout << "Current GPU (busy-waiting, no WG swap-in):\n";
    if (base.deadlocked) {
        std::cout << "  DEADLOCK after "
                  << base.forcedPreemptions
                  << " WGs were pre-empted; their contexts were "
                     "saved\n  but nothing can ever restore them ("
                  << base.contextRestores << " restores).\n";
    } else {
        std::cout << "  finished in " << base.gpuCycles
                  << " cycles (pre-emption missed the window)\n";
    }

    core::RunResult awg = runScenario(benchmark, core::Policy::Awg);
    std::cout << "\nAWG (waiting atomics + SyncMon + CP firmware):\n";
    if (awg.completed) {
        std::cout << "  completed in " << awg.gpuCycles
                  << " cycles, validated="
                  << (awg.validated ? "yes" : "no") << "\n"
                  << "  " << awg.contextSaves
                  << " context switches out, " << awg.contextRestores
                  << " back in ("
                  << awg.forcedPreemptions
                  << " forced by the kernel scheduler, the rest\n"
                  << "  cooperative yields by waiting WGs)\n";
    } else {
        std::cout << "  unexpected: " << awg.statusString() << "\n";
    }

    core::RunResult timeout = runScenario(benchmark,
                                          core::Policy::Timeout);
    if (awg.completed && timeout.completed) {
        std::printf("\nAWG vs fixed-interval Timeout rotation: "
                    "%.2fx faster\n",
                    static_cast<double>(timeout.gpuCycles) /
                        static_cast<double>(awg.gpuCycles));
    }
    return 0;
}
