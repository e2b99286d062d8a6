#include "harness/serving.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "harness/observe.hh"
#include "harness/runner.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/registry.hh"

namespace ifp::harness {

namespace {

/** Fixed-precision double formatting (byte-stable table). */
std::string
fmtDouble(double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    return buf;
}

std::uint64_t
percentile(std::vector<std::uint64_t> values, unsigned pct)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    std::size_t idx = (pct * (values.size() - 1)) / 100;
    return values[idx];
}

/** Resolve an admission policy name into CP knobs; fatal on unknown. */
cp::AdmissionConfig
admissionConfigFor(const std::string &name)
{
    cp::AdmissionConfig adm;
    if (name == "serial") {
        adm.maxResidentKernels = 1;
        adm.cuShareFloor = 0;
    } else if (name == "share") {
        adm.maxResidentKernels = 4;
        adm.cuShareFloor = 2;
    } else if (name == "priority") {
        adm.maxResidentKernels = 4;
        adm.cuShareFloor = 0;
    } else {
        ifp_fatal("unknown admission policy '%s' (serial|share|"
                  "priority)", name.c_str());
    }
    return adm;
}

/**
 * Event-driven serving statistics: the typed per-context listener
 * records the completion order as it happens — no dispatcher polling.
 */
class ServingObserver : public gpu::KernelListener
{
  public:
    void
    kernelCompleted(const gpu::DispatchContext &ctx) override
    {
        completionOrder.push_back(ctx.id);
    }

    std::vector<int> completionOrder;
};

} // anonymous namespace

std::vector<ServingTenant>
defaultServingTenants()
{
    // The Figure 2 situation as a tenant mix: a latency-sensitive
    // high-priority stream sharing the machine with throughput and
    // batch work.
    return {
        ServingTenant{"latency", "HT", 2, 8'000, 1.0},
        ServingTenant{"throughput", "SPM_G", 1, 0, 1.0},
        ServingTenant{"batch", "BA", 0, 0, 1.0},
    };
}

workloads::WorkloadParams
defaultServingParams()
{
    workloads::WorkloadParams params;
    params.numWgs = 16;      // quarter-size grid: kernels churn fast
    params.wgsPerGroup = 4;
    params.wiPerWg = 64;
    params.iters = 2;
    params.csValuCycles = 20;
    return params;
}

ServingReport
runServingScenario(const ServingConfig &cfg)
{
    std::vector<ServingTenant> tenants =
        cfg.tenants.empty() ? defaultServingTenants() : cfg.tenants;
    ifp_assert(!tenants.empty(), "serving scenario with no tenants");
    ifp_assert(cfg.numLaunches > 0, "serving scenario with no launches");

    workloads::WorkloadParams params = cfg.params;
    params.style = core::styleFor(cfg.policy);
    params.backoffMaxCycles = static_cast<std::int64_t>(
        cfg.runCfg.policy.sleepMaxBackoffCycles);

    core::RunConfig run_cfg = cfg.runCfg;
    run_cfg.policy.policy = cfg.policy;
    run_cfg.cp.admission = admissionConfigFor(cfg.admission);
    if (!cfg.traceOutPath.empty() || traceSmokeEnabled())
        run_cfg.traceEnabled = true;

    core::GpuSystem system(run_cfg);
    ServingObserver observer;

    // The whole arrival schedule is drawn up front from one seeded
    // generator: tenant pick, then an exponential inter-arrival gap.
    // Kernels are pre-built before simulation starts, so every launch
    // owns disjoint buffers from the bump allocator.
    sim::Rng rng(cfg.seed);
    double total_weight = 0.0;
    for (const ServingTenant &t : tenants)
        total_weight += t.weight;

    struct Launch
    {
        const ServingTenant *tenant;
        workloads::WorkloadPtr workload;
        isa::Kernel kernel;
        int ctxId = -1;
    };
    std::vector<Launch> launches;
    launches.reserve(cfg.numLaunches);

    double t_us = 0.0;
    for (unsigned i = 0; i < cfg.numLaunches; ++i) {
        double pick = rng.real() * total_weight;
        const ServingTenant *tenant = &tenants.back();
        for (const ServingTenant &t : tenants) {
            if (pick < t.weight) {
                tenant = &t;
                break;
            }
            pick -= t.weight;
        }
        t_us -= cfg.meanInterarrivalUs * std::log(1.0 - rng.real());

        Launch launch;
        launch.tenant = tenant;
        launch.workload = workloads::makeWorkload(tenant->workload);
        launch.kernel = launch.workload->build(system, params);

        gpu::LaunchOptions opts;
        opts.tenant = tenant->name;
        opts.priority = tenant->priority;
        opts.deadlineCycles = tenant->deadlineCycles;
        opts.listener = &observer;
        auto at = static_cast<sim::Tick>(
            std::llround(t_us * 1'000'000.0));
        launch.ctxId =
            system.enqueueKernelAt(launch.kernel, opts, at);
        launches.push_back(std::move(launch));
    }

    core::ServeResult serve_result = system.serve();

    // Validate every completed kernel's memory image (each launch has
    // its own buffers, so they are independent).
    for (const Launch &launch : launches) {
        const core::KernelRunStat &ks =
            serve_result.kernels[static_cast<std::size_t>(
                launch.ctxId)];
        if (!ks.completed)
            continue;
        std::string err;
        if (!launch.workload->validate(system.memory(), params, err)) {
            ifp_fatal("serving %s/%s ctx%d: validation failed: %s",
                      launch.tenant->workload.c_str(),
                      core::policyName(cfg.policy), launch.ctxId,
                      err.c_str());
        }
    }

    if (!cfg.traceOutPath.empty()) {
        std::ofstream os(cfg.traceOutPath);
        if (!os) {
            ifp_fatal("cannot write trace file '%s'",
                      cfg.traceOutPath.c_str());
        }
        writeChromeTrace(os, system);
    }

    ServingReport report;
    report.policy = core::policyName(cfg.policy);
    report.admission = cfg.admission;
    report.launches = cfg.numLaunches;
    report.seed = cfg.seed;
    report.verdict = serve_result.run.verdictString();
    report.makespanCycles = serve_result.run.gpuCycles;
    report.completionOrder = std::move(observer.completionOrder);
    report.kernels = std::move(serve_result.kernels);
    report.run = std::move(serve_result.run);

    std::vector<std::uint64_t> turnarounds;
    report.allCompleted = true;
    for (const core::KernelRunStat &ks : report.kernels) {
        if (ks.completed)
            turnarounds.push_back(ks.turnaroundCycles);
        else
            report.allCompleted = false;
        report.maxQueueCycles =
            std::max(report.maxQueueCycles,
                     static_cast<std::uint64_t>(ks.queueCycles));
        if (ks.tenant.empty())
            continue;
    }
    report.p50TurnaroundCycles = percentile(turnarounds, 50);
    report.p99TurnaroundCycles = percentile(turnarounds, 99);

    for (std::size_t i = 0; i < report.kernels.size(); ++i) {
        const core::KernelRunStat &ks = report.kernels[i];
        const ServingTenant *tenant = launches[i].tenant;
        if (tenant->deadlineCycles > 0) {
            ++report.sloTracked;
            if (ks.sloMissed)
                ++report.sloMisses;
        }
        report.preemptions += ks.preemptions;
        report.swapOuts += ks.swapOuts;
        report.swapIns += ks.swapIns;
    }

    const sim::StatGroup &ds = system.dispatcher().stats();
    report.cuReassignments = static_cast<std::uint64_t>(
        ds.scalar("cuReassignments").value());
    report.admissionPasses =
        system.commandProcessor().admissionScheduler().recomputePasses();

    // Jain fairness over per-tenant mean turnaround. Delivered-work
    // counts would be identical across policies whenever every kernel
    // completes; latency is what admission policies actually
    // redistribute between tenants.
    std::vector<double> service;
    for (const ServingTenant &t : tenants) {
        double sum_turnaround = 0.0;
        unsigned n = 0;
        for (std::size_t i = 0; i < report.kernels.size(); ++i) {
            if (launches[i].tenant != &t ||
                !report.kernels[i].completed)
                continue;
            sum_turnaround +=
                static_cast<double>(report.kernels[i].turnaroundCycles);
            ++n;
        }
        if (n > 0)
            service.push_back(sum_turnaround / n);
    }
    double sum = 0.0, sumsq = 0.0;
    for (double s : service) {
        sum += s;
        sumsq += s * s;
    }
    report.fairness =
        sumsq > 0.0
            ? (sum * sum) /
                  (static_cast<double>(service.size()) * sumsq)
            : 1.0;

    return report;
}

void
writeServingJson(std::ostream &os, const ServingReport &report)
{
    sim::json::Writer w(os, sim::json::Layout::Indented);
    w.beginObject().key("schema").value("ifp-serving-v1");
    w.key("policy").value(report.policy);
    w.key("admission").value(report.admission);
    w.key("launches").value(report.launches);
    w.key("seed").value(report.seed);
    w.key("verdict").value(report.verdict);
    w.key("allCompleted").value(report.allCompleted);
    w.key("makespanCycles").value(report.makespanCycles);
    w.key("p50TurnaroundCycles").value(report.p50TurnaroundCycles);
    w.key("p99TurnaroundCycles").value(report.p99TurnaroundCycles);
    w.key("maxQueueCycles").value(report.maxQueueCycles);
    w.key("sloTracked").value(report.sloTracked);
    w.key("sloMisses").value(report.sloMisses);
    w.key("preemptions").value(report.preemptions);
    w.key("swapOuts").value(report.swapOuts);
    w.key("swapIns").value(report.swapIns);
    w.key("cuReassignments").value(report.cuReassignments);
    w.key("admissionPasses").value(report.admissionPasses);
    w.key("fairness").value(report.fairness);
    w.key("completionOrder").beginArray();
    for (int ctx : report.completionOrder)
        w.value(ctx);
    w.endArray().key("kernels").beginArray();
    for (const core::KernelRunStat &ks : report.kernels) {
        w.beginObject().key("ctx").value(ks.ctxId);
        w.key("kernel").value(ks.kernelName);
        w.key("tenant").value(ks.tenant);
        w.key("priority").value(ks.priority);
        w.key("completed").value(ks.completed);
        w.key("enqueueCycle").value(ks.enqueueCycle);
        w.key("admitCycle").value(ks.admitCycle);
        w.key("firstDispatchCycle").value(ks.firstDispatchCycle);
        w.key("completeCycle").value(ks.completeCycle);
        w.key("queueCycles").value(ks.queueCycles);
        w.key("turnaroundCycles").value(ks.turnaroundCycles);
        w.key("sloMissed").value(ks.sloMissed);
        w.key("dispatches").value(ks.dispatches);
        w.key("swapOuts").value(ks.swapOuts);
        w.key("swapIns").value(ks.swapIns);
        w.key("preemptions").value(ks.preemptions);
        w.key("cusGained").value(ks.cusGained);
        w.key("cusLost").value(ks.cusLost);
        w.key("wgsCompleted").value(ks.wgsCompleted);
        w.key("numWgs").value(ks.numWgs).endObject();
    }
    w.endArray().endObject();
    os << '\n';
}

void
writeServingTable(std::ostream &os,
                  const std::vector<ServingReport> &reports)
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-10s %-9s %8s %12s %12s %9s %9s %9s %s\n",
                  "policy", "admission", "launches", "p50(cyc)",
                  "p99(cyc)", "sloMiss", "preempt", "fairness",
                  "verdict");
    os << line;
    for (const ServingReport &r : reports) {
        char slo[32];
        std::snprintf(slo, sizeof(slo), "%u/%u", r.sloMisses,
                      r.sloTracked);
        std::snprintf(
            line, sizeof(line),
            "%-10s %-9s %8u %12llu %12llu %9s %9llu %9s %s\n",
            r.policy.c_str(), r.admission.c_str(), r.launches,
            static_cast<unsigned long long>(r.p50TurnaroundCycles),
            static_cast<unsigned long long>(r.p99TurnaroundCycles),
            slo, static_cast<unsigned long long>(r.preemptions),
            fmtDouble(r.fairness).c_str(), r.verdict.c_str());
        os << line;
    }
}

} // namespace ifp::harness
