#include "harness/observe.hh"

#include <cstdlib>
#include <fstream>

#include "harness/results_io.hh"
#include "harness/runner.hh"
#include "sim/logging.hh"

namespace ifp::harness {

namespace {

void
replaceAll(std::string &s, const std::string &from,
           const std::string &to)
{
    std::size_t pos = 0;
    while ((pos = s.find(from, pos)) != std::string::npos) {
        s.replace(pos, from.size(), to);
        pos += to.size();
    }
}

} // anonymous namespace

std::string
expandObservePath(const std::string &path, const Experiment &exp)
{
    std::string out = path;
    replaceAll(out, "{workload}", exp.workload);
    replaceAll(out, "{policy}", core::policyName(exp.policy));
    replaceAll(out, "{scenario}",
               exp.runCfg.faultPlan.losesCu() ? "oversub" : "steady");
    return out;
}

void
writeChromeTrace(std::ostream &os, const core::GpuSystem &system)
{
    const sim::TraceSink *sink = system.traceSink();
    ifp_assert(sink,
               "writeChromeTrace needs a traced run "
               "(ObserveOptions or RunConfig::traceEnabled)");
    sink->writeChromeTrace(os, system.config().gpu.numCus);
}

void
writeStatsJson(std::ostream &os, const Experiment &exp,
               const core::GpuSystem &system,
               const core::RunResult &result)
{
    os << "{\n\"experiment-result\": ";
    writeResultJson(os, exp, result);
    os << ",\n\"groups\": [";
    bool first = true;
    system.forEachStatGroup([&](const sim::StatGroup &group) {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
        group.dumpJson(os);
    });
    os << "\n]\n}\n";
}

void
exportRunArtifacts(const Experiment &exp,
                   const core::GpuSystem &system,
                   const core::RunResult &result)
{
    if (!exp.observe.traceOutPath.empty()) {
        std::string path =
            expandObservePath(exp.observe.traceOutPath, exp);
        std::ofstream os(path);
        if (!os)
            ifp_fatal("cannot open trace output '%s'", path.c_str());
        writeChromeTrace(os, system);
    }
    if (!exp.observe.statsJsonPath.empty()) {
        std::string path =
            expandObservePath(exp.observe.statsJsonPath, exp);
        std::ofstream os(path);
        if (!os)
            ifp_fatal("cannot open stats output '%s'", path.c_str());
        writeStatsJson(os, exp, system, result);
    }
}

bool
traceSmokeEnabled()
{
    static const bool enabled = [] {
        const char *env = std::getenv("IFP_BENCH_TRACE");
        return env && env[0] != '\0' && env[0] != '0';
    }();
    return enabled;
}

} // namespace ifp::harness
