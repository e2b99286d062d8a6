/**
 * @file
 * Multi-tenant serving scenario: the same seeded Poisson stream of 20
 * kernel launches (latency / throughput / batch tenant mix) served
 * under the three admission policies of the CP scheduler:
 *
 *  - serial:   one resident kernel at a time (classic GPU queue),
 *  - share:    up to 4 residents with a 2-CU share floor,
 *  - priority: up to 4 residents, pure priority cascade.
 *
 * Reported per policy: p50/p99 turnaround, SLO misses of the
 * deadline-carrying tenant, preemption/swap activity and the Jain
 * fairness index over per-tenant delivered WGs. Everything is
 * deterministic from the seed — reruns and IFP_BENCH_JOBS settings
 * produce byte-identical stdout.
 */

#include <chrono>

#include "bench_common.hh"
#include "harness/serving.hh"

int
main()
{
    using namespace ifp;
    bench::banner("Multi-tenant kernel-stream serving",
                  "One Poisson stream, three admission policies.");

    const std::vector<std::string> admissions = {"serial", "share",
                                                 "priority"};
    std::vector<harness::ServingReport> reports;

    for (const std::string &admission : admissions) {
        harness::ServingConfig cfg;
        cfg.policy = core::Policy::Awg;
        cfg.admission = admission;
        cfg.numLaunches = 20;
        cfg.seed = 1;
        cfg.meanInterarrivalUs = 5.0;
        cfg.params = harness::defaultServingParams();

        auto t0 = std::chrono::steady_clock::now();
        harness::ServingReport report =
            harness::runServingScenario(cfg);
        auto t1 = std::chrono::steady_clock::now();
        double seconds =
            std::chrono::duration<double>(t1 - t0).count();
        std::fprintf(stderr, "serving/%s: %.2fs\n", admission.c_str(),
                     seconds);
        reports.push_back(std::move(report));
    }

    std::cout << "\n";
    harness::writeServingTable(std::cout, reports);

    std::cout << "\nPer-policy serving reports (ifp-serving-v1):\n";
    for (const harness::ServingReport &report : reports) {
        harness::writeServingJson(std::cout, report);
        std::cout << "\n";
    }

    std::cout << "Reading: 'serial' is the no-sharing baseline — low-"
                 "priority kernels head-of-line-block the latency "
                 "tenant. 'share' carves the machine into CU shares "
                 "(fairness up, tail down); 'priority' gives the "
                 "latency tenant the whole machine on arrival, at the "
                 "cost of preempting resident batch work — the WG "
                 "drain/context-save machinery the paper builds for "
                 "oversubscription, reused for multi-tenant serving.\n";
    return 0;
}
