/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries. Each
 * binary regenerates the rows/series of one table or figure of
 * "Independent Forward Progress of Work-groups" (ISCA 2020).
 */

#ifndef IFP_BENCH_BENCH_COMMON_HH
#define IFP_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "workloads/registry.hh"

namespace ifp::bench {

/** The 12 benchmarks of Figures 14/15, in axis order. */
inline std::vector<std::string>
figureBenchmarks()
{
    return workloads::heteroSyncAbbrevs();
}

/** The six benchmarks the paper modified for Figure 7 (Sleep). */
inline std::vector<std::string>
sleepBenchmarks()
{
    return {"SPM_G", "FAM_G", "SPM_L", "FAM_L", "TB_LG", "TBEX_LG"};
}

/** Banner naming the experiment being reproduced. */
inline void
banner(const std::string &what, const std::string &notes = "")
{
    std::cout << "==========================================================\n";
    std::cout << "Reproduction: " << what << "\n";
    std::cout << "Paper: Independent Forward Progress of Work-groups"
              << " (ISCA 2020)\n";
    if (!notes.empty())
        std::cout << notes << "\n";
    std::cout << "==========================================================\n";
}

/** Format a speedup/ratio for a table cell. */
inline std::string
ratioCell(const core::RunResult &result, double reference_cycles)
{
    if (result.deadlocked)
        return "DEADLOCK";
    if (!result.completed)
        return "timeout";
    if (result.gpuCycles == 0)
        return "-";
    return harness::formatDouble(
        reference_cycles / static_cast<double>(result.gpuCycles), 2);
}

/**
 * Print @p table (CSV handling — the IFP_BENCH_CSV environment
 * variable — lives in harness::TextTable::emit, shared by every
 * output path).
 */
inline void
printTable(const harness::TextTable &table)
{
    table.emit(std::cout);
}

/** The standard-evaluation-geometry experiment for one (w, policy). */
inline harness::Experiment
evalExperiment(const std::string &workload, core::Policy policy,
               bool oversubscribed = false)
{
    harness::Experiment exp;
    exp.workload = workload;
    exp.policy = policy;
    exp.params = harness::defaultEvalParams();
    if (oversubscribed) {
        // Our kernels are shorter than the paper's testbed runs; the
        // pre-emption point scales accordingly (mid-run, as in §VI).
        exp.params.iters = 16;
        exp.runCfg.faultPlan = core::FaultPlan::cuLoss(10);
    }
    return exp;
}

/** Run one experiment in the standard evaluation geometry. */
inline core::RunResult
evalRun(const std::string &workload, core::Policy policy,
        bool oversubscribed = false)
{
    return harness::runExperiment(
        evalExperiment(workload, policy, oversubscribed));
}

/**
 * Execute every experiment queued on @p sweep (worker count from
 * IFP_BENCH_JOBS) and print the per-bench wall-clock/speedup line to
 * stderr. Results come back in submission order, so tables built
 * from them are byte-identical to a serial run.
 */
inline const std::vector<core::RunResult> &
runSweep(harness::SweepRunner &sweep, const std::string &label)
{
    const std::vector<core::RunResult> &results = sweep.run();
    sweep.reportPerf(label);
    return results;
}

} // namespace ifp::bench

#endif // IFP_BENCH_BENCH_COMMON_HH
