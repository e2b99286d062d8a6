/**
 * @file
 * Shared fixtures and helpers for the test suite.
 */

#ifndef IFP_TESTS_TEST_HELPERS_HH
#define IFP_TESTS_TEST_HELPERS_HH

#include <gtest/gtest.h>

#include "core/gpu_system.hh"
#include "harness/runner.hh"
#include "isa/builder.hh"
#include "workloads/registry.hh"

namespace ifp::test {

/** Small-but-contended geometry for fast integration tests. */
inline workloads::WorkloadParams
smallParams()
{
    workloads::WorkloadParams params;
    params.numWgs = 16;
    params.wgsPerGroup = 4;
    params.wiPerWg = 64;
    params.iters = 2;
    params.csValuCycles = 20;
    return params;
}

/** Run one (workload, policy) experiment with small geometry. */
inline core::RunResult
runSmall(const std::string &workload, core::Policy policy,
         bool oversubscribed = false)
{
    harness::Experiment exp;
    exp.workload = workload;
    exp.policy = policy;
    exp.params = smallParams();
    if (oversubscribed) {
        exp.params.iters = 12;
        exp.runCfg.faultPlan = core::FaultPlan::cuLoss(5);
    }
    return harness::runExperiment(exp);
}

/** A RunConfig sized for unit tests (fewer deadlock-window cycles). */
inline core::RunConfig
testRunConfig(core::Policy policy = core::Policy::Awg)
{
    core::RunConfig cfg;
    cfg.policy.policy = policy;
    cfg.deadlockWindowCycles = 200'000;
    cfg.maxCycles = 50'000'000;
    return cfg;
}

/**
 * Assemble a single-WG kernel from a builder (convenience for
 * execution tests).
 */
inline isa::Kernel
makeTestKernel(isa::KernelBuilder &b, unsigned num_wgs = 1,
               unsigned wi_per_wg = 64)
{
    isa::Kernel k;
    k.name = "test";
    k.code = b.build();
    k.numWgs = num_wgs;
    k.wiPerWg = wi_per_wg;
    k.ldsBytes = 1024;
    k.maxWgsPerCu = 8;
    return k;
}

/**
 * The Figure 10 window-of-vulnerability kernel, shared between the
 * dynamic race reproduction (test_window_of_vulnerability.cc) and the
 * static analyzer's cross-check (test_analysis.cc).
 *
 * Two WGs. WG0 (consumer) waits for flag == 1; WG1 (producer) sets
 * the flag after @p producer_delay cycles of work. With
 * @p use_waiting_atomic false the consumer checks and then arms the
 * monitor as separate steps, and the check-to-arm distance is
 * inflated by @p gap_cycles so the producer's update can land inside
 * the window.
 */
inline isa::Kernel
wovRaceKernel(mem::Addr flag, mem::Addr done, bool use_waiting_atomic,
              std::int64_t gap_cycles, std::int64_t producer_delay)
{
    isa::KernelBuilder b;
    b.movi(16, static_cast<std::int64_t>(flag));
    b.movi(17, 1);

    isa::Label consumer = b.label();
    isa::Label finish = b.label();
    b.bz(isa::rWgId, consumer);

    // ---- producer (wg1)
    b.valu(producer_delay);
    b.atom(20, mem::AtomicOpcode::Exch, 16, 0, 17, 0, false, true);
    b.br(finish);

    // ---- consumer (wg0)
    b.bind(consumer);
    if (use_waiting_atomic) {
        // Figure 10 bottom: compare-and-wait, no race.
        isa::Label retry = b.here();
        b.atomWait(20, mem::AtomicOpcode::Load, 16, 0, 0, 17, true);
        b.cmpEq(21, 20, 17);
        b.bz(21, retry);
    } else {
        // Figure 10 top: check, then arm. The valu models the
        // distance between the check and the wait reaching the L2.
        isa::Label poll = b.here();
        isa::Label got = b.label();
        b.atom(20, mem::AtomicOpcode::Load, 16, 0, 0, 0, true);
        b.cmpEq(21, 20, 17);
        b.bnz(21, got);
        b.valu(gap_cycles);
        b.armWait(16, 0, 17);
        b.br(poll);
        b.bind(got);
    }

    b.bind(finish);
    b.movi(22, static_cast<std::int64_t>(done));
    b.atom(23, mem::AtomicOpcode::Inc, 22, 0, 0);
    b.halt();

    isa::Kernel k;
    k.name = "race";
    k.code = b.build();
    k.numWgs = 2;
    k.wiPerWg = 64;
    k.maxWgsPerCu = 8;
    return k;
}

} // namespace ifp::test

#endif // IFP_TESTS_TEST_HELPERS_HH
