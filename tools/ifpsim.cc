/**
 * @file
 * ifpsim — command-line front end to the simulator.
 *
 * Examples:
 *   ifpsim --list
 *   ifpsim --workload FAM_G --policy AWG
 *   ifpsim --workload TB_LG --policy MonNR-One --oversubscribed
 *   ifpsim --workload SPM_G --policy AWG --wgs 128 --group 16 \
 *          --stats --json result.json
 *   ifpsim --workload SLM_G --policy MonR-All --debug AWGPred
 *   ifpsim --workload FAM_G --policy AWG --fault-plan kitchen-sink
 *   ifpsim --workload SPM_G --policy MonNR-All --chaos-seed 7
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli.hh"
#include "core/fault_plan.hh"
#include "harness/results_io.hh"
#include "harness/runner.hh"
#include "isa/instruction.hh"
#include "sim/logging.hh"
#include "workloads/registry.hh"

namespace {

using ifp::cli::parseCount;
using ifp::cli::parsePolicy;

struct Options
{
    std::string workload = "SPM_G";
    std::string policy = "AWG";
    /** --oversubscribed: FaultPlan::cuLoss(cuLossUs, cuRestoreUs). */
    bool oversubscribed = false;
    std::uint64_t cuLossUs = 50;
    std::uint64_t cuRestoreUs = 0;
    bool list = false;
    bool stats = false;
    bool disasm = false;
    std::string jsonPath;
    std::string traceOutPath;
    std::string statsJsonPath;
    std::string faultPlanArg;
    std::uint64_t chaosSeed = 0;
    bool haveChaosSeed = false;
    ifp::workloads::WorkloadParams params =
        ifp::harness::defaultEvalParams();
    ifp::core::RunConfig runCfg;
};

/** Largest fault time, in microseconds, whose tick count fits. */
constexpr std::uint64_t maxFaultUs =
    ifp::sim::maxTick / ifp::sim::ticksFromMicroseconds(1);

void
usage()
{
    std::cout <<
        "ifpsim — AWG / Independent Forward Progress simulator\n"
        "\n"
        "  --list                 list benchmarks and exit\n"
        "  --workload NAME        benchmark abbreviation (SPM_G, ...)\n"
        "  --policy NAME          waiting policy (AWG, Baseline, ...)\n"
        "  --oversubscribed       lose one CU mid-run (Sec. VI); runs\n"
        "                         ahead of any --fault-plan events\n"
        "  --wgs N / --group L    grid size / WGs per locality group\n"
        "  --wi N / --iters I     WIs per WG / iterations per WG\n"
        "  --timeout-interval C   Timeout policy interval (cycles)\n"
        "  --sleep-max C          Sleep policy max backoff (cycles)\n"
        "  --cu-loss-us U         when the CU is lost (microseconds)\n"
        "  --cu-restore-us U      when the CU comes back (0=never)\n"
        "  --fault-plan P         fault-injection plan: a preset name\n"
        "                         (";

    {
        bool first = true;
        for (const std::string &n :
             ifp::core::faultPlanPresetNames()) {
            std::cout << (first ? "" : ", ") << n;
            first = false;
        }
    }

    std::cout <<
        ")\n"
        "                         or a plan file (see "
        "core/fault_plan.hh)\n"
        "  --chaos-seed N         generate a random survivable fault\n"
        "                         plan from seed N (the chaos-campaign\n"
        "                         generator, so campaign rows can be\n"
        "                         replayed: seed K = plan chaos-K)\n"
        "  --syncmon-sets N       SyncMon condition cache sets\n"
        "  --syncmon-ways N       SyncMon condition cache ways\n"
        "  --waitlist N           SyncMon waiting-WG list capacity\n"
        "  --log-capacity N       Monitor Log entries\n"
        "  --spill-policy P       new | evict-youngest\n"
        "  --no-stall-prediction  disable AWG's stall predictor\n"
        "  --stats                dump per-component statistics\n"
        "  --disasm               print the generated kernel\n"
        "  --json FILE            write the result as JSON\n"
        "  --trace-out FILE       write a Chrome-trace JSON timeline\n"
        "                         (open in Perfetto / chrome://tracing)\n"
        "  --stats-json FILE      write all statistics as JSON\n"
        "  --debug FLAG           enable a trace flag (repeatable)\n";
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
        } else if (!std::strcmp(a, "--list")) {
            opt.list = true;
        } else if (!std::strcmp(a, "--workload")) {
            opt.workload = need(i);
        } else if (!std::strcmp(a, "--policy")) {
            opt.policy = need(i);
        } else if (!std::strcmp(a, "--oversubscribed")) {
            opt.oversubscribed = true;
        } else if (!std::strcmp(a, "--wgs")) {
            opt.params.numWgs = parseCount(a, need(i), 1u);
        } else if (!std::strcmp(a, "--group")) {
            opt.params.wgsPerGroup = parseCount(a, need(i), 1u);
        } else if (!std::strcmp(a, "--wi")) {
            opt.params.wiPerWg = parseCount(a, need(i), 1u);
        } else if (!std::strcmp(a, "--iters")) {
            opt.params.iters = parseCount(a, need(i), 1u);
        } else if (!std::strcmp(a, "--timeout-interval")) {
            opt.runCfg.policy.timeoutIntervalCycles =
                parseCount<sim::Cycles>(a, need(i));
        } else if (!std::strcmp(a, "--sleep-max")) {
            opt.runCfg.policy.sleepMaxBackoffCycles =
                parseCount<sim::Cycles>(a, need(i));
        } else if (!std::strcmp(a, "--cu-loss-us")) {
            opt.cuLossUs =
                parseCount<std::uint64_t>(a, need(i), 0, maxFaultUs);
        } else if (!std::strcmp(a, "--cu-restore-us")) {
            opt.cuRestoreUs =
                parseCount<std::uint64_t>(a, need(i), 0, maxFaultUs);
        } else if (!std::strcmp(a, "--fault-plan")) {
            opt.faultPlanArg = need(i);
        } else if (!std::strcmp(a, "--chaos-seed")) {
            opt.chaosSeed = parseCount<std::uint64_t>(a, need(i));
            opt.haveChaosSeed = true;
        } else if (!std::strcmp(a, "--syncmon-sets")) {
            opt.runCfg.policy.syncmon.sets = parseCount(a, need(i), 1u);
        } else if (!std::strcmp(a, "--syncmon-ways")) {
            opt.runCfg.policy.syncmon.ways = parseCount(a, need(i), 1u);
        } else if (!std::strcmp(a, "--waitlist")) {
            opt.runCfg.policy.syncmon.waitingListCapacity =
                parseCount(a, need(i), 1u);
        } else if (!std::strcmp(a, "--log-capacity")) {
            opt.runCfg.cp.monitorLogCapacity = parseCount(a, need(i), 1u);
        } else if (!std::strcmp(a, "--spill-policy")) {
            std::string p = need(i);
            if (p == "new") {
                opt.runCfg.policy.syncmon.spillPolicy =
                    syncmon::SpillPolicy::SpillNew;
            } else if (p == "evict-youngest") {
                opt.runCfg.policy.syncmon.spillPolicy =
                    syncmon::SpillPolicy::EvictYoungest;
            } else {
                ifp_fatal("--spill-policy expects new or evict-youngest, "
                          "got '%s'", p.c_str());
            }
        } else if (!std::strcmp(a, "--no-stall-prediction")) {
            opt.runCfg.policy.syncmon.stallPredictionEnabled = false;
        } else if (!std::strcmp(a, "--stats")) {
            opt.stats = true;
        } else if (!std::strcmp(a, "--disasm")) {
            opt.disasm = true;
        } else if (!std::strcmp(a, "--json")) {
            opt.jsonPath = need(i);
        } else if (!std::strcmp(a, "--trace-out")) {
            opt.traceOutPath = need(i);
        } else if (!std::strcmp(a, "--stats-json")) {
            opt.statsJsonPath = need(i);
        } else if (!std::strcmp(a, "--debug")) {
            sim::setDebugFlag(need(i));
        } else {
            usage();
            ifp_fatal("unknown option '%s'", a);
        }
    }

    if (opt.list) {
        std::cout << "Benchmarks (Table 2):\n";
        for (const auto &w : workloads::makeFullSuite()) {
            std::printf("  %-10s %-24s %s\n", w->abbrev().c_str(),
                        w->name().c_str(),
                        w->characteristics().description.c_str());
        }
        return 0;
    }

    if (!opt.faultPlanArg.empty() && opt.haveChaosSeed)
        ifp_fatal("--fault-plan and --chaos-seed are exclusive");
    if (opt.haveChaosSeed) {
        core::ChaosSpec spec;
        spec.numCus = opt.runCfg.gpu.numCus;
        opt.runCfg.faultPlan =
            core::generateChaosPlan(spec, opt.chaosSeed);
    } else if (!opt.faultPlanArg.empty()) {
        auto presets = core::faultPlanPresetNames();
        if (std::find(presets.begin(), presets.end(),
                      opt.faultPlanArg) != presets.end()) {
            opt.runCfg.faultPlan =
                core::faultPlanPreset(opt.faultPlanArg);
        } else {
            std::ifstream in(opt.faultPlanArg);
            if (!in) {
                std::string known;
                for (const std::string &n : presets) {
                    if (!known.empty())
                        known += ", ";
                    known += n;
                }
                ifp_fatal("cannot open fault plan '%s': not a "
                          "readable file, and not a preset "
                          "(presets: %s)",
                          opt.faultPlanArg.c_str(), known.c_str());
            }
            std::ostringstream text;
            text << in.rdbuf();
            std::string error;
            auto plan = core::parseFaultPlan(text.str(), error);
            if (!plan)
                ifp_fatal("%s: %s", opt.faultPlanArg.c_str(),
                          error.c_str());
            opt.runCfg.faultPlan = *plan;
        }
    }
    if (opt.oversubscribed) {
        // Loss events go first, so a combined run schedules them
        // ahead of the other plan's events at the same tick.
        core::FaultPlan loss =
            core::FaultPlan::cuLoss(opt.cuLossUs, opt.cuRestoreUs);
        core::FaultPlan &plan = opt.runCfg.faultPlan;
        if (opt.haveChaosSeed || !opt.faultPlanArg.empty()) {
            plan.events.insert(plan.events.begin(), loss.events.begin(),
                               loss.events.end());
        } else {
            plan = std::move(loss);
        }
    }

    harness::Experiment exp;
    exp.workload = opt.workload;
    exp.policy = parsePolicy(opt.policy);
    exp.params = opt.params;
    exp.runCfg = opt.runCfg;
    exp.observe.traceOutPath = opt.traceOutPath;
    exp.observe.statsJsonPath = opt.statsJsonPath;

    if (opt.disasm) {
        core::GpuSystem scratch(exp.runCfg);
        workloads::WorkloadPtr w = workloads::makeWorkload(
            exp.workload);
        workloads::WorkloadParams params = exp.params;
        params.style = core::styleFor(exp.policy);
        isa::Kernel kernel = w->build(scratch, params);
        std::cout << "; kernel " << kernel.name << " ("
                  << kernel.code.size() << " instructions, "
                  << kernel.numWgs << " WGs x " << kernel.wiPerWg
                  << " WIs)\n";
        for (std::size_t pc = 0; pc < kernel.code.size(); ++pc) {
            std::printf("%4zu:  %s\n", pc,
                        isa::disassemble(kernel.code[pc]).c_str());
        }
    }

    core::RunResult result;
    if (opt.stats) {
        result = harness::runExperimentWithSystem(
            exp, [](core::GpuSystem &system) {
                system.dumpStats(std::cout);
            });
    } else {
        result = harness::runExperiment(exp);
    }

    std::printf(
        "%s/%s%s: %s cycles, verdict=%s, %llu atomics, "
        "%llu instructions, "
        "%llu saves / %llu restores, validated=%s\n",
        exp.workload.c_str(), core::policyName(exp.policy),
        exp.runCfg.faultPlan.losesCu() ? " (oversubscribed)" : "",
        result.statusString().c_str(),
        core::verdictName(result.verdict),
        static_cast<unsigned long long>(result.atomicInstructions),
        static_cast<unsigned long long>(result.instructions),
        static_cast<unsigned long long>(result.contextSaves),
        static_cast<unsigned long long>(result.contextRestores),
        result.validated ? "yes"
                         : (result.completed ? "NO" : "n/a"));

    if (!opt.jsonPath.empty()) {
        std::ofstream out(opt.jsonPath);
        if (!out)
            ifp_fatal("cannot open '%s'", opt.jsonPath.c_str());
        harness::writeResultJson(out, exp, result);
        out << "\n";
        std::cout << "wrote " << opt.jsonPath << "\n";
    }
    return 0;
}
