/**
 * @file
 * ifplint — static kernel verifier and synchronization-race analyzer.
 *
 * Lints the kernels the benchmark registry generates, in every codegen
 * style, without simulating them: structural well-formedness, barrier
 * divergence, the window-of-vulnerability race, lost wakeups and the
 * static inter-WG progress check (paper Figure 1).
 *
 * Examples:
 *   ifplint --all --Werror          # gate: registry must lint clean
 *   ifplint --workload TB_LG --wgs 128
 *   ifplint --all --json            # deterministic machine output
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/interference.hh"
#include "analysis/lint.hh"
#include "cli.hh"
#include "core/gpu_system.hh"
#include "core/policy.hh"
#include "sim/logging.hh"
#include "workloads/registry.hh"

namespace {

using ifp::cli::parseCount;
using ifp::cli::styleName;

struct Options
{
    std::string workload;
    bool all = false;
    bool json = false;
    bool werror = false;
    bool list = false;
    bool interference = false;
    ifp::workloads::WorkloadParams params;
};

void
usage()
{
    std::cout <<
        "ifplint — static kernel verifier for the IFP ISA\n"
        "\n"
        "  --workload NAME    lint one benchmark (SPM_G, ...)\n"
        "  --all              lint the full registry\n"
        "  --list             list benchmarks and exit\n"
        "  --wgs N            grid size in work-groups\n"
        "  --group L          WGs per locality group\n"
        "  --wi N             work-items per WG\n"
        "  --iters I          iterations per WG\n"
        "  --interference     inter-WG interference summaries (per-WG\n"
        "                     footprints, wait-for graph, circular\n"
        "                     waits) instead of the lint passes\n"
        "  --json             deterministic JSON report on stdout\n"
        "  --Werror           unsuppressed warnings fail the run\n"
        "                     (with --interference: static circular\n"
        "                     waits fail the run)\n"
        "\n"
        "Each benchmark is linted in all four codegen styles (Busy,\n"
        "SleepBackoff, WaitInstr, WaitAtomic). Exit status is 0 when\n"
        "every kernel is clean, 1 otherwise.\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace ifp;
    Options opt;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            ifp_fatal("missing value after %s", argv[i]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            usage();
            return 0;
        } else if (!std::strcmp(a, "--workload")) {
            opt.workload = need(i);
        } else if (!std::strcmp(a, "--all")) {
            opt.all = true;
        } else if (!std::strcmp(a, "--list")) {
            opt.list = true;
        } else if (!std::strcmp(a, "--json")) {
            opt.json = true;
        } else if (!std::strcmp(a, "--interference")) {
            opt.interference = true;
        } else if (!std::strcmp(a, "--Werror")) {
            opt.werror = true;
        } else if (!std::strcmp(a, "--wgs")) {
            opt.params.numWgs = parseCount(a, need(i), 1u);
        } else if (!std::strcmp(a, "--group")) {
            opt.params.wgsPerGroup = parseCount(a, need(i), 1u);
        } else if (!std::strcmp(a, "--wi")) {
            opt.params.wiPerWg = parseCount(a, need(i), 1u);
        } else if (!std::strcmp(a, "--iters")) {
            opt.params.iters = parseCount(a, need(i), 1u);
        } else {
            usage();
            ifp_fatal("unknown option '%s'", a);
        }
    }

    if (opt.list) {
        for (const auto &w : workloads::makeFullSuite())
            std::cout << w->abbrev() << "\n";
        return 0;
    }
    if (!opt.all && opt.workload.empty()) {
        usage();
        ifp_fatal("pick --workload NAME or --all");
    }

    std::vector<workloads::WorkloadPtr> suite;
    if (opt.all) {
        suite = workloads::makeFullSuite();
    } else {
        suite.push_back(workloads::makeWorkload(opt.workload));
    }

    constexpr core::SyncStyle styles[] = {
        core::SyncStyle::Busy, core::SyncStyle::SleepBackoff,
        core::SyncStyle::WaitInstr, core::SyncStyle::WaitAtomic};

    const gpu::GpuConfig machine;
    std::vector<analysis::Report> reports;
    std::vector<analysis::InterferenceSummary> summaries;
    for (const auto &w : suite) {
        for (core::SyncStyle style : styles) {
            // A scratch system per kernel: workloads allocate and
            // initialize their buffers while emitting code, and the
            // buffer addresses feed the abstract interpretation.
            core::RunConfig cfg;
            cfg.gpu = machine;
            core::GpuSystem scratch(cfg);
            workloads::WorkloadParams params = opt.params;
            params.style = style;
            isa::Kernel kernel = w->build(scratch, params);
            kernel.name += std::string("/") + styleName(style);

            analysis::LaunchContext launch = analysis::makeLaunchContext(
                kernel, machine.numCus, machine.simdsPerCu,
                machine.wavefrontsPerSimd, machine.ldsBytesPerCu);
            if (opt.interference) {
                summaries.push_back(
                    analysis::summarizeInterference(kernel, launch));
            } else {
                reports.push_back(analysis::runLint(kernel, launch));
            }
        }
    }

    if (opt.interference) {
        bool ok = true;
        unsigned circular = 0;
        for (const analysis::InterferenceSummary &s : summaries)
            circular += static_cast<unsigned>(s.circular.size());
        if (opt.werror && circular > 0)
            ok = false;
        if (opt.json) {
            analysis::writeInterferenceSummariesJson(summaries,
                                                     std::cout);
        } else {
            for (const analysis::InterferenceSummary &s : summaries)
                analysis::printInterferenceSummary(s, std::cout);
            std::cout << (ok ? "interference clean"
                             : "interference FAILED")
                      << " (" << summaries.size() << " kernels, "
                      << circular << " circular wait sites"
                      << (opt.werror ? ", -Werror" : "") << ")\n";
        }
        return ok ? 0 : 1;
    }

    bool ok = true;
    for (const analysis::Report &r : reports)
        ok = ok && r.clean(opt.werror);

    if (opt.json) {
        analysis::writeReportsJson(reports, std::cout);
    } else {
        for (const analysis::Report &r : reports)
            analysis::printReport(r, std::cout);
        std::cout << (ok ? "lint clean" : "lint FAILED") << " ("
                  << reports.size() << " kernels"
                  << (opt.werror ? ", -Werror" : "") << ")\n";
    }
    return ok ? 0 : 1;
}
