/**
 * @file
 * Figure 15: the oversubscribed scenario — one CU's resident WGs are
 * pre-empted mid-run and the kernel must finish on 7 CUs. Speedups
 * are normalized to Timeout (the simplest policy that survives).
 * Baseline and Sleep stall on every benchmark, and the table prints
 * DEADLOCK for any stall: current GPUs have no WG-granularity
 * swap-in, so the pre-empted WGs are stranded. The liveness oracle
 * calls all 12 Baseline stalls DEADLOCK; Sleep's backoff counts as
 * retry activity, and its stalls read LIVELOCK on 10 benchmarks and
 * DEADLOCK on SPM_L and SPMBO_L (tests/test_oversubscription.cc,
 * FigFifteenVerdicts, pins each cell).
 * Paper: AWG ~2.5x over Timeout (geomean), with some tree barriers
 * being AWG's weakest cases due to stall-time prediction.
 */

#include "bench_common.hh"

int
main()
{
    using namespace ifp;
    bench::banner("Figure 15 - Speedup vs Timeout, oversubscribed "
                  "(one CU lost mid-run; higher is better)");

    const std::vector<core::Policy> policies = {
        core::Policy::Baseline, core::Policy::Sleep,
        core::Policy::MonNRAll, core::Policy::MonNROne,
        core::Policy::Awg};

    harness::TextTable t({"Benchmark", "Baseline", "Sleep", "Timeout",
                          "MonNR-All", "MonNR-One", "AWG"});

    const std::vector<std::string> benchmarks =
        bench::figureBenchmarks();
    harness::SweepRunner sweep;
    for (const std::string &w : benchmarks) {
        sweep.enqueue(
            bench::evalExperiment(w, core::Policy::Timeout, true));
        for (core::Policy policy : policies)
            sweep.enqueue(bench::evalExperiment(w, policy, true));
    }
    bench::runSweep(sweep, "fig15");

    std::vector<std::vector<double>> speedups(policies.size());
    unsigned deadlocks = 0;
    std::size_t idx = 0;
    for (const std::string &w : benchmarks) {
        const core::RunResult &timeout = sweep.result(idx++);
        std::vector<std::string> cells(policies.size());
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const core::RunResult &r = sweep.result(idx++);
            cells[p] = bench::ratioCell(
                r, static_cast<double>(timeout.gpuCycles));
            if (r.deadlocked)
                ++deadlocks;
            if (r.completed && r.gpuCycles > 0) {
                speedups[p].push_back(
                    static_cast<double>(timeout.gpuCycles) /
                    static_cast<double>(r.gpuCycles));
            }
        }
        t.addRow({w, cells[0], cells[1], "1.00", cells[2], cells[3],
                  cells[4]});
    }

    std::vector<std::string> geo_row = {"GeoMean", "-", "-", "1.00"};
    for (std::size_t p = 2; p < policies.size(); ++p)
        geo_row.push_back(
            harness::formatDouble(harness::geomean(speedups[p]), 2));
    t.addRow(std::move(geo_row));

    bench::printTable(t);
    std::cout << "\nBaseline/Sleep deadlocks observed: " << deadlocks
              << " of " << 2 * bench::figureBenchmarks().size()
              << " (paper: all). AWG geomean over Timeout is the "
                 "headline oversubscribed result (~2.5x in the "
                 "paper).\n";
    return 0;
}
