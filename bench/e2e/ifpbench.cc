/**
 * @file
 * ifpbench: the end-to-end benchmark program (README.md beside this
 * file names every workload and metric and says why each was chosen).
 *
 * One process runs one workload on one thread in a closed loop: an
 * untimed warm-up pass, then timed passes until --seconds have
 * elapsed. Every call ifpbench makes into a layer's public API runs
 * inside a span, so set-up time and per-layer self time come from the
 * same clock reads. With --trace 1 the spans are also kept in memory,
 * traced passes alternate with untraced ones (their ratio is the
 * tracing overhead), and the spans are written as Chrome-trace JSON
 * at exit.
 *
 * Every run's output is checked: its memory image, its verdict and,
 * where the inputs do not depend on the seed or the seed is 1, a
 * digest of its simulated statistics against reference.json. The last
 * line of stdout is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. The exit status is 0 only when every check
 * passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/gpu_system.hh"
#include "explore/explore.hh"
#include "harness/runner.hh"
#include "harness/serving.hh"
#include "harness/table.hh"
#include "sim/rng.hh"
#include "workloads/litmus.hh"
#include "workloads/queues.hh"
#include "workloads/registry.hh"

namespace {

using namespace ifp;
using Clock = std::chrono::steady_clock;

/** The layer calls ifpbench times; index into kLayerNames. */
enum Layer : unsigned
{
    Pass,  //!< one whole pass; its self time is ifpbench's own work
    WorkloadsMake,
    CoreSetup,
    WorkloadsBuild,
    GpuEnqueue,
    CoreRun,
    WorkloadsValidate,
    CoreTeardown,
    ExploreExhaustive,
    ExploreSchedule,
    NumLayers,
};

constexpr const char *kLayerNames[NumLayers] = {
    "pass",           "workloads.make",     "core.setup",
    "workloads.build", "gpu.enqueue",       "core.run",
    "workloads.validate", "core.teardown",  "explore.exhaustive",
    "explore.schedule",
};

using LayerTimes = std::array<double, NumLayers>;

/** Whether @p layer is part of set-up (the setup_s metric). */
constexpr bool
isSetup(Layer layer)
{
    return layer == WorkloadsMake || layer == CoreSetup ||
           layer == WorkloadsBuild;
}

/**
 * Span clock. Always accumulates, for the current pass, per-layer self
 * time (a span's duration minus its children's) and, per run index,
 * the time of the pass's top-level calls and their set-up self time.
 * When recording, it also keeps every span for the Chrome-trace export.
 */
class Tracer
{
  public:
    struct Span
    {
        Layer layer;
        long parent;          //!< index into spans(), -1 for a root
        unsigned pass;
        std::uint64_t run;    //!< run index within the pass
        double start = 0.0;   //!< seconds since the tracer started
        double end = 0.0;
    };

    void
    startPass(unsigned pass, bool record)
    {
        passIndex = pass;
        recording = record;
        runIndex = 0;
        selfTimes.fill(0.0);
        runTimes.clear();
        runSetup.clear();
    }

    void setRun(std::uint64_t run) { runIndex = run; }

    void
    open(Layer layer)
    {
        Frame f{layer, now(), 0.0, -1};
        if (recording) {
            f.span = static_cast<long>(recorded.size());
            recorded.push_back(Span{layer,
                                    stack.empty() ? -1 : stack.back().span,
                                    passIndex, runIndex, f.start});
        }
        stack.push_back(f);
    }

    /** Close the innermost span; @return its duration in seconds. */
    double
    close()
    {
        ifp_assert(!stack.empty(), "span closed twice");
        Frame f = stack.back();
        stack.pop_back();
        double end = now();
        double duration = end - f.start;
        selfTimes[f.layer] += duration - f.children;
        if (runTimes.size() <= runIndex) {
            runTimes.resize(runIndex + 1, 0.0);
            runSetup.resize(runIndex + 1, 0.0);
        }
        if (stack.size() == 1)
            runTimes[runIndex] += duration;
        if (isSetup(f.layer))
            runSetup[runIndex] += duration - f.children;
        if (!stack.empty())
            stack.back().children += duration;
        if (f.span >= 0)
            recorded[static_cast<std::size_t>(f.span)].end = end;
        return duration;
    }

    /** Run @p fn inside a span of @p layer and return its result. */
    template <typename Fn>
    decltype(auto)
    call(Layer layer, Fn &&fn)
    {
        struct Scope
        {
            Tracer &t;
            ~Scope() { t.close(); }
        };
        open(layer);
        Scope scope{*this};
        return fn();
    }

    /** Self seconds per layer accumulated in the current pass. */
    const LayerTimes &self() const { return selfTimes; }

    /**
     * Seconds of the current pass's top-level calls (the children of
     * its root span), summed per run index.
     */
    const std::vector<double> &perRun() const { return runTimes; }

    /** Set-up self seconds of the current pass, summed per run index. */
    const std::vector<double> &perRunSetup() const { return runSetup; }

    const std::vector<Span> &spans() const { return recorded; }

    /** Chrome-trace JSON of every recorded span (Perfetto opens it). */
    void
    writeChromeTrace(std::ostream &os, const std::string &workload) const
    {
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
           << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":1,\"args\":{\"name\":\"ifpbench "
           << workload << "\"}}";
        os << std::fixed << std::setprecision(3);
        for (const Span &s : recorded) {
            os << ",\n{\"name\":\"" << kLayerNames[s.layer]
               << "\",\"cat\":\"" << workload
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
               << s.start * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
               << ",\"args\":{\"pass\":" << s.pass
               << ",\"run\":" << s.run << ",\"parent\":" << s.parent
               << "}}";
        }
        os << "\n]}\n";
    }

  private:
    struct Frame
    {
        Layer layer;
        double start;
        double children;
        long span;
    };

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin)
            .count();
    }

    Clock::time_point origin = Clock::now();
    std::vector<Frame> stack;
    std::vector<Span> recorded;
    LayerTimes selfTimes{};
    std::vector<double> runTimes;
    std::vector<double> runSetup;
    unsigned passIndex = 0;
    std::uint64_t runIndex = 0;
    bool recording = false;
};

/** Simulated work of one pass, summed over its runs. */
struct Counts
{
    double cycles = 0, events = 0, requests = 0;
    double instructions = 0, atomics = 0, sleeps = 0, activeCycles = 0;
    double l1Hits = 0, l1Misses = 0;
    double l2Hits = 0, l2Misses = 0, l2Atomics = 0, l2WaitFails = 0,
           l2QueueTicks = 0;
    double dramReads = 0, dramWrites = 0, dramQueueTicks = 0;
    double registrations = 0, resumes = 0, spills = 0,
           logFullRetries = 0, predicted = 0, mispredicted = 0;
    double contextSaves = 0, contextRestores = 0, logDrained = 0,
           spilledResumes = 0, rescuesFired = 0;
    double dispatches = 0, swapOuts = 0, swapIns = 0,
           cuReassignments = 0;
    std::array<double, sim::numStallReasons> stall{};
    double wgLifetime = 0;

    /// @name Serving (cp/admission)
    /// @{
    std::vector<double> turnarounds;
    double sloTracked = 0, sloMisses = 0, fairnessSum = 0, servings = 0;
    /// @}

    /// @name Schedule exploration
    /// @{
    double schedules = 0, pruned = 0, porSkipped = 0, choicePoints = 0;
    /// @}

    void
    add(const core::RunResult &r, const core::GpuSystem &system)
    {
        cycles += static_cast<double>(r.gpuCycles);
        events += static_cast<double>(r.hostEvents);
        requests += static_cast<double>(r.memRequests);
        instructions += static_cast<double>(r.instructions);
        atomics += static_cast<double>(r.atomicInstructions);
        sleeps += static_cast<double>(r.sleeps);
        predicted += static_cast<double>(r.predictedResumes);
        mispredicted += static_cast<double>(r.mispredictedResumes);
        for (std::size_t k = 0; k < stall.size(); ++k)
            stall[k] += r.wgCycleBreakdown[k];
        wgLifetime += r.wgLifetimeCycles;

        system.forEachStatGroup([this](const sim::StatGroup &g) {
            auto v = [&g](const char *stat) {
                const sim::Scalar *s = g.tryScalar(stat);
                return s ? s->value() : 0.0;
            };
            std::string_view name = g.name();
            if (name == "l2") {
                l2Hits += v("hits");
                l2Misses += v("misses");
                l2Atomics += v("atomics");
                l2WaitFails += v("waitFails");
                l2QueueTicks += v("queueTicks");
            } else if (name == "dram") {
                dramReads += v("reads");
                dramWrites += v("writes");
                dramQueueTicks += v("queueTicks");
            } else if (name == "syncmon") {
                registrations += v("registrations");
                resumes += v("resumesAll") + v("resumesOne");
                spills += v("spills");
                logFullRetries += v("logFullRetries");
            } else if (name == "cp") {
                contextSaves += v("contextSaves");
                contextRestores += v("contextRestores");
                logDrained += v("logDrained");
                spilledResumes += v("spilledResumes");
                rescuesFired += v("rescuesFired");
            } else if (name == "dispatcher") {
                dispatches += v("dispatches");
                swapOuts += v("swapOuts");
                swapIns += v("swapIns");
                cuReassignments += v("cuReassignments");
            } else if (name.size() > 3 &&
                       name.substr(name.size() - 3) == ".l1") {
                l1Hits += v("hits");
                l1Misses += v("misses");
            } else if (name.substr(0, 2) == "cu") {
                activeCycles += v("activeCycles");
            }
        });
    }
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t
fnv(std::uint64_t hash, std::string_view bytes)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/**
 * Digest of a run's simulated statistics: every modelled RunResult
 * field plus every component StatGroup. Host-side work counters
 * (hostEvents, memRequests) are left out, so a change that only makes
 * the simulator cheaper keeps the digest.
 */
std::uint64_t
runDigest(const core::RunResult &r, const core::GpuSystem &system,
          const std::string &extra = "")
{
    std::ostringstream os;
    os << std::setprecision(17) << r.completed << ' ' << r.deadlocked
       << ' ' << core::verdictName(r.verdict) << ' ' << r.runTicks << ' '
       << r.gpuCycles << ' ' << r.instructions << ' '
       << r.atomicInstructions << ' ' << r.waitingAtomics << ' '
       << r.armWaits << ' ' << r.sleeps << ' ' << r.totalWgExecCycles
       << ' ' << r.totalWgWaitCycles << ' ' << r.wgLifetimeCycles;
    for (double c : r.wgCycleBreakdown)
        os << ' ' << c;
    os << ' ' << r.contextSaves << ' ' << r.contextRestores << ' '
       << r.condResumesAll << ' ' << r.condResumesOne << ' '
       << r.cpRescues << ' ' << r.forcedPreemptions << ' '
       << r.predictedResumes << ' ' << r.mispredictedResumes << ' '
       << r.maxConditions << ' ' << r.maxWaiters << ' '
       << r.maxMonitoredLines << ' ' << r.maxLogEntries << ' '
       << r.maxSpilledConds << ' ' << r.maxContextStoreBytes << ' '
       << r.spills << ' ' << r.logFullRetries << ' '
       << r.wgCompletionSpreadCycles << ' ' << r.maxWgWaitCycles << ' '
       << r.injectedFaults << ' ' << r.droppedResumes << ' '
       << r.delayedResumes << ' ' << r.lostWakeups.size() << ' '
       << r.faultRecoveries.size() << '\n';
    system.forEachStatGroup(
        [&os](const sim::StatGroup &g) { g.dumpJson(os); });
    os << extra;
    return fnv(kFnvOffset, os.str());
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    bool smoke = false;
    std::string traceOut;
    std::string digestsOut;
};

/** State shared by the passes of one workload run. */
class Bench
{
  public:
    explicit Bench(Options options) : opt(std::move(options))
    {
        // The seed drives only explore; the other workloads are
        // checked against the reference on every seed. A run that
        // writes a new reference is not checked against the old one;
        // its verdict and memory-image checks still apply.
        digestsApply = opt.digestsOut.empty() &&
                       (opt.seed == 1 || opt.workload != "explore");
        if (digestsApply)
            loadReference();
    }

    const Options opt;
    Tracer tracer;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Checks that are not per-operation (geomean, determinism). */
    bool checksOk = true;

    /// @name Per-pass results, reset by startPass()
    /// @{
    Counts counts;
    std::uint64_t passDigest = kFnvOffset;
    double fig15Geomean = 0.0;
    /// @}

    void
    startPass(unsigned index, bool record)
    {
        counts = Counts{};
        passDigest = kFnvOffset;
        firstPass = index == 0;
        tracer.startPass(index, record);
    }

    /** Count @p ops operations, of which @p bad failed (@p why). */
    void
    tally(std::uint64_t ops, std::uint64_t bad, const std::string &why)
    {
        attempted += ops;
        if (bad == 0)
            return;
        failed += bad;
        if (++reported <= 20)
            std::fprintf(stderr, "ifpbench: FAILED %s\n", why.c_str());
    }

    /**
     * Fold @p digest into the pass digest and check it against the
     * reference. @return false on a mismatch that counts as failure.
     */
    bool
    checkDigest(const std::string &key, std::uint64_t digest)
    {
        passDigest = fnv(passDigest, key + hex(digest));
        if (firstPass)
            observed.emplace_back(key, hex(digest));
        if (!digestsApply)
            return true;
        auto it = reference.find(key);
        return it != reference.end() && it->second == hex(digest);
    }

    void
    check(bool ok, const std::string &why)
    {
        if (!ok) {
            checksOk = false;
            std::fprintf(stderr, "ifpbench: CHECK FAILED %s\n",
                         why.c_str());
        }
    }

    /** Write the first pass's digests as reference.json entries. */
    void
    writeDigests() const
    {
        if (opt.digestsOut.empty())
            return;
        std::ofstream os(opt.digestsOut, std::ios::app);
        if (!os)
            ifp_fatal("cannot write '%s'", opt.digestsOut.c_str());
        for (const auto &[key, digest] : observed)
            os << "  \"" << key << "\": \"" << digest << "\"\n";
    }

  private:
    /** Read the "key": "digest" entries of reference.json. */
    void
    loadReference()
    {
        const char *path = "bench/e2e/reference.json";
        std::ifstream is(path);
        std::stringstream text;
        text << is.rdbuf();
        const std::string s = text.str();
        static const std::regex entry(
            "\"([^\"]+)\"\\s*:\\s*\"([0-9a-f]{16})\"");
        for (std::sregex_iterator it(s.begin(), s.end(), entry), end;
             it != end; ++it)
            reference[(*it)[1]] = (*it)[2];
        if (reference.empty()) {
            std::fprintf(stderr,
                         "ifpbench: no digests in %s; every digest check "
                         "will fail\n",
                         path);
        }
    }

    bool digestsApply = true;
    bool firstPass = true;
    unsigned reported = 0;
    std::map<std::string, std::string> reference;
    std::vector<std::pair<std::string, std::string>> observed;
};

/**
 * One single-kernel run through the layers' public API: make the
 * workload, compose the machine, build the kernel, run it, validate
 * the memory image, then check verdict and digest.
 */
core::RunResult
runCell(Bench &b, const std::string &key,
        const std::function<workloads::WorkloadPtr()> &make,
        workloads::WorkloadParams params, core::RunConfig cfg,
        core::Policy policy, core::Verdict expected)
{
    Tracer &t = b.tracer;
    cfg.policy.policy = policy;
    params.style = core::styleFor(policy);
    params.backoffMaxCycles =
        static_cast<std::int64_t>(cfg.policy.sleepMaxBackoffCycles);

    workloads::WorkloadPtr workload = t.call(WorkloadsMake, make);
    auto system = t.call(CoreSetup, [&] {
        return std::make_unique<core::GpuSystem>(cfg);
    });
    isa::Kernel kernel = t.call(
        WorkloadsBuild, [&] { return workload->build(*system, params); });
    core::RunResult r =
        t.call(CoreRun, [&] { return system->run(kernel); });

    std::string error;
    bool valid = !r.completed || t.call(WorkloadsValidate, [&] {
        return workload->validate(system->memory(), params, error);
    });

    b.counts.add(r, *system);
    bool digest_ok = b.checkDigest(key, runDigest(r, *system));
    t.call(CoreTeardown, [&] { system.reset(); });

    // An expected DEADLOCK accepts any stall: the liveness oracle
    // refines some of them (Sleep's backoff spinning into LIVELOCK),
    // and the digest pins the exact verdict anyway.
    bool verdict_ok = expected == core::Verdict::Deadlock
                          ? r.deadlocked
                          : r.verdict == expected;
    bool ok = valid && verdict_ok && digest_ok;
    b.tally(1, ok ? 0 : 1,
            key + ": verdict " + core::verdictName(r.verdict) +
                " (expected " + core::verdictName(expected) + ")" +
                (valid ? "" : ", invalid memory image: " + error) +
                (digest_ok ? "" : ", digest differs from reference"));
    return r;
}

/**
 * fig14 / fig15: the 12 HeteroSync benchmarks under the six policies
 * of the paper's Figures 14 and 15.
 */
void
passFigure(Bench &b, bool oversubscribed)
{
    static const core::Policy kPolicies[] = {
        core::Policy::Baseline, core::Policy::Sleep,
        core::Policy::Timeout,  core::Policy::MonNRAll,
        core::Policy::MonNROne, core::Policy::Awg};
    const char *fig = oversubscribed ? "fig15" : "fig14";

    std::vector<std::string> benchmarks = workloads::heteroSyncAbbrevs();
    if (b.opt.smoke && oversubscribed)
        benchmarks.resize(3);

    std::vector<double> awg_over_timeout;
    std::uint64_t run = 0;
    for (const std::string &w : benchmarks) {
        double timeout_cycles = 0.0;
        for (core::Policy policy : kPolicies) {
            workloads::WorkloadParams params = harness::defaultEvalParams();
            core::RunConfig cfg;
            core::Verdict expected = core::Verdict::Complete;
            if (oversubscribed) {
                // One CU lost 10 us into the run; the shorter kernels
                // of this model need the earlier loss point (§VI).
                params.iters = 16;
                cfg.faultPlan = core::FaultPlan::cuLoss(10, 0, -1);
                if (core::deadlockProne(policy))
                    expected = core::Verdict::Deadlock;
            }
            b.tracer.setRun(run++);
            core::RunResult r = runCell(
                b,
                std::string(fig) + "/" + w + "/" +
                    core::policyName(policy),
                [&w] { return workloads::makeWorkload(w); }, params,
                cfg, policy, expected);
            if (policy == core::Policy::Timeout)
                timeout_cycles = static_cast<double>(r.gpuCycles);
            if (policy == core::Policy::Awg && r.completed &&
                r.gpuCycles > 0)
                awg_over_timeout.push_back(
                    timeout_cycles / static_cast<double>(r.gpuCycles));
        }
    }
    if (oversubscribed)
        b.fig15Geomean = harness::geomean(awg_over_timeout);
}

void passFig14(Bench &b) { passFigure(b, false); }
void passFig15(Bench &b) { passFigure(b, true); }

/**
 * queues: the queue_throughput matrix — MPMCQ depth x ratio, PIPE
 * depth and WSD, each under five policies.
 */
void
passQueues(Bench &b)
{
    static const core::Policy kPolicies[] = {
        core::Policy::Baseline, core::Policy::Sleep,
        core::Policy::Timeout, core::Policy::MonRAll, core::Policy::Awg};
    struct Cell
    {
        std::string abbrev;
        std::string label;
        std::function<workloads::WorkloadPtr()> make;
    };
    std::vector<Cell> cells;
    struct Mpmc
    {
        unsigned depth, producers, consumers;
    };
    for (Mpmc m : {Mpmc{4, 1, 1}, Mpmc{8, 1, 1}, Mpmc{16, 1, 1},
                   Mpmc{8, 3, 1}, Mpmc{8, 1, 3}}) {
        cells.push_back(
            {"MPMCQ",
             "MPMCQ/d" + std::to_string(m.depth) + "/" +
                 std::to_string(m.producers) + ":" +
                 std::to_string(m.consumers),
             [m] {
                 return std::make_unique<workloads::MpmcQueueWorkload>(
                     m.depth, m.producers, m.consumers);
             }});
    }
    for (unsigned depth : {4u, 8u, 16u}) {
        cells.push_back(
            {"PIPE", "PIPE/d" + std::to_string(depth), [depth] {
                 return std::make_unique<workloads::PipelineWorkload>(
                     3, depth);
             }});
    }
    cells.push_back({"WSD", "WSD", [] {
                         return std::make_unique<
                             workloads::WorkStealWorkload>();
                     }});

    std::uint64_t run = 0;
    for (const Cell &cell : cells) {
        for (core::Policy policy : kPolicies) {
            b.tracer.setRun(run++);
            runCell(b,
                    "queues/" + cell.label + "/" +
                        core::policyName(policy),
                    cell.make, harness::defaultEvalParams(), {}, policy,
                    workloads::queueExpectedVerdict(cell.abbrev, policy));
        }
    }
}

/**
 * The serving arrival stream does not follow --seed. Under the share
 * and priority admissions a work-group whose CU is revoked can finish
 * while it drains, and the dispatcher then panics in finishSwapOut
 * ("finishSwapOut of wgN in state done"). Under priority, 8 of the
 * streams seeded 1..300 hit that race (the first is 60); under share,
 * stream 457 does. Stream 1 does not, so serving always serves it and
 * every serving run is checked against reference.json.
 */
constexpr std::uint64_t kServingStreamSeed = 1;

/**
 * serving: one machine per admission policy, each serving the same
 * Poisson stream of launches from the latency / throughput / batch
 * tenant mix under AWG. Arrivals are drawn up front and enqueued at
 * their due ticks (an open loop in simulated time), so turnaround
 * counts from when each launch was due.
 */
void
passServing(Bench &b)
{
    struct Admission
    {
        const char *name;
        unsigned maxResident;
        unsigned shareFloor;
    };
    static const Admission kAdmissions[] = {
        {"serial", 1, 0}, {"share", 4, 2}, {"priority", 4, 0}};
    const unsigned launches = b.opt.smoke ? 100 : 1000;
    const double mean_interarrival_us = 5.0;
    const std::vector<harness::ServingTenant> tenants =
        harness::defaultServingTenants();
    double total_weight = 0.0;
    for (const harness::ServingTenant &t : tenants)
        total_weight += t.weight;

    Tracer &t = b.tracer;
    for (const Admission &adm : kAdmissions) {
        core::RunConfig cfg;
        cfg.policy.policy = core::Policy::Awg;
        cfg.cp.admission.maxResidentKernels = adm.maxResident;
        cfg.cp.admission.cuShareFloor = adm.shareFloor;
        workloads::WorkloadParams params = harness::defaultServingParams();
        params.style = core::styleFor(cfg.policy.policy);
        params.backoffMaxCycles =
            static_cast<std::int64_t>(cfg.policy.sleepMaxBackoffCycles);

        auto system = t.call(CoreSetup, [&] {
            return std::make_unique<core::GpuSystem>(cfg);
        });
        sim::Rng rng(kServingStreamSeed);
        std::vector<workloads::WorkloadPtr> workloads_of(launches);
        std::vector<std::size_t> tenant_of(launches);
        double t_us = 0.0;
        for (unsigned i = 0; i < launches; ++i) {
            double pick = rng.real() * total_weight;
            std::size_t k = 0;
            while (k + 1 < tenants.size() && pick >= tenants[k].weight)
                pick -= tenants[k++].weight;
            const harness::ServingTenant *tenant = &tenants[k];
            t_us -= mean_interarrival_us * std::log(1.0 - rng.real());

            t.setRun(i);
            tenant_of[i] = k;
            workloads_of[i] = t.call(WorkloadsMake, [&] {
                return workloads::makeWorkload(tenant->workload);
            });
            isa::Kernel kernel = t.call(WorkloadsBuild, [&] {
                return workloads_of[i]->build(*system, params);
            });
            gpu::LaunchOptions opts;
            opts.tenant = tenant->name;
            opts.priority = tenant->priority;
            opts.deadlineCycles = tenant->deadlineCycles;
            auto at =
                static_cast<sim::Tick>(std::llround(t_us * 1'000'000.0));
            t.call(GpuEnqueue, [&] {
                return system->enqueueKernelAt(kernel, opts, at);
            });
        }

        // Each admission's serve() gets a run index of its own, after
        // the launches', so its fastest time is taken on its own.
        t.setRun(launches + static_cast<std::uint64_t>(&adm - kAdmissions));
        core::ServeResult served =
            t.call(CoreRun, [&] { return system->serve(); });

        // Contexts are numbered in creation order, so kernels[i] is
        // launch i.
        std::uint64_t bad = 0;
        std::ostringstream per_kernel;
        // Per tenant: summed turnaround and completed launches.
        std::vector<std::pair<double, double>> tenant_turnaround(
            tenants.size());
        for (unsigned i = 0; i < launches; ++i) {
            const core::KernelRunStat &ks = served.kernels[i];
            std::string error;
            bool ok = ks.completed && t.call(WorkloadsValidate, [&] {
                return workloads_of[i]->validate(system->memory(), params,
                                                 error);
            });
            if (!ok) {
                ++bad;
                std::fprintf(stderr,
                             "ifpbench: serving/%s launch %u (%s) %s %s\n",
                             adm.name, i,
                             tenants[tenant_of[i]].workload.c_str(),
                             ks.completed ? "invalid:" : "did not complete",
                             error.c_str());
            }
            per_kernel << ks.ctxId << ' ' << ks.kernelName << ' '
                       << ks.tenant << ' ' << ks.completed << ' '
                       << ks.enqueueCycle << ' ' << ks.admitCycle << ' '
                       << ks.firstDispatchCycle << ' ' << ks.completeCycle
                       << ' ' << ks.queueCycles << ' '
                       << ks.turnaroundCycles << ' ' << ks.sloMissed << ' '
                       << ks.dispatches << ' ' << ks.swapOuts << ' '
                       << ks.swapIns << ' ' << ks.preemptions << ' '
                       << ks.cusGained << ' ' << ks.cusLost << ' '
                       << ks.wgsCompleted << '\n';
            if (ks.completed) {
                b.counts.turnarounds.push_back(
                    static_cast<double>(ks.turnaroundCycles));
                auto &[sum, n] = tenant_turnaround[tenant_of[i]];
                sum += static_cast<double>(ks.turnaroundCycles);
                n += 1.0;
            }
            if (ks.sloMissed)
                b.counts.sloMisses += 1.0;
            if (tenants[tenant_of[i]].deadlineCycles > 0)
                b.counts.sloTracked += 1.0;
        }

        // Jain index over the mean turnaround of each tenant that
        // completed a launch.
        double sum = 0.0, sumsq = 0.0, served_tenants = 0.0;
        for (const auto &[total, n] : tenant_turnaround) {
            if (n == 0.0)
                continue;
            sum += total / n;
            sumsq += (total / n) * (total / n);
            served_tenants += 1.0;
        }
        if (sumsq > 0.0)
            b.counts.fairnessSum += sum * sum / (served_tenants * sumsq);
        b.counts.servings += 1.0;

        b.counts.add(served.run, *system);
        std::string key = std::string("serving/") + adm.name + "/n" +
                          std::to_string(launches);
        bool digest_ok = b.checkDigest(
            key, runDigest(served.run, *system, per_kernel.str()));
        t.call(CoreTeardown, [&] { system.reset(); });

        if (served.run.verdict != core::Verdict::Complete || !digest_ok)
            bad = launches;
        b.tally(launches, bad,
                key + ": verdict " +
                    core::verdictName(served.run.verdict) + ", " +
                    std::to_string(bad) + " failed launches" +
                    (digest_ok ? "" : ", digest differs from reference"));
    }
}

/**
 * explore: every litmus except ring-6 under every annotated policy —
 * one bounded exhaustive DFS with partial-order reduction at the
 * ifpexplore defaults, then a seeded random walk. ring-6 is left out
 * because its AWG cell runs each schedule to the 30 M-cycle budget
 * (about 18 s a pass), which would make this a second fig15.
 */
void
passExplore(Bench &b)
{
    const unsigned walk = b.opt.smoke ? 10 : 100;
    Tracer &t = b.tracer;
    std::uint64_t run = 0;
    for (const workloads::LitmusSpec &spec : workloads::litmusSpecs()) {
        if (spec.name == "ring-6")
            continue;
        auto litmus = t.call(WorkloadsMake,
                             [&] { return workloads::makeLitmus(spec.name); });
        for (const auto &[policy, expected] : spec.expected) {
            const std::string cell =
                "explore/" + spec.name + "/" + core::policyName(policy);

            explore::ExhaustiveConfig cfg;
            cfg.por = true;
            t.setRun(run++);
            explore::ExhaustiveResult ex = t.call(ExploreExhaustive, [&] {
                return explore::exhaustive(*litmus, policy, cfg);
            });
            b.counts.schedules += static_cast<double>(ex.schedulesRun);
            b.counts.pruned += static_cast<double>(ex.pruned);
            b.counts.porSkipped += static_cast<double>(ex.porSkipped);
            std::ostringstream ex_record;
            ex_record << ex.schedulesRun << ' ' << ex.pruned << ' '
                      << ex.porSkipped << ' ' << ex.frontierExhausted
                      << ' ' << ex.maxPrefixSeen;
            for (std::uint64_t c : ex.counts)
                ex_record << ' ' << c;
            bool ex_digest = b.checkDigest(
                cell + "/exhaustive", fnv(kFnvOffset, ex_record.str()));
            std::uint64_t ex_bad =
                ex.schedulesRun -
                ex.counts[static_cast<std::size_t>(expected)];
            if (!ex_digest)
                ex_bad = ex.schedulesRun;
            b.tally(ex.schedulesRun, ex_bad,
                    cell + "/exhaustive: " + std::to_string(ex_bad) +
                        " schedules disagree with " +
                        core::verdictName(expected) +
                        (ex_digest ? "" : " or the reference digest"));

            std::uint64_t walk_digest = kFnvOffset;
            std::uint64_t walk_bad = 0;
            for (unsigned i = 0; i < walk; ++i) {
                explore::RandomOracle oracle(explore::scheduleSeed(
                    spec.name, policy, b.opt.seed, i));
                // runLitmusSchedule constructs the machine, calls the
                // hook, then builds, runs, validates and tears down in
                // one call. So core.setup is the constructor alone, and
                // core.run also holds the kernel build, validation and
                // teardown of the walk's schedules.
                t.setRun(run++);
                t.open(ExploreSchedule);
                t.open(CoreSetup);
                explore::ScheduleResult r = explore::runLitmusSchedule(
                    *litmus, policy, &oracle, {},
                    [&t](core::GpuSystem &) {
                        t.close();
                        t.open(CoreRun);
                    });
                t.close();
                t.close();
                r.choicePoints = oracle.decisions;

                b.counts.cycles += static_cast<double>(r.gpuCycles);
                b.counts.choicePoints +=
                    static_cast<double>(r.choicePoints);
                b.counts.schedules += 1.0;
                walk_digest = fnv(
                    walk_digest,
                    std::string(core::verdictName(r.verdict)) + ' ' +
                        std::to_string(r.gpuCycles) + ' ' +
                        std::to_string(r.choicePoints) + ' ' +
                        std::to_string(r.validated) + '\n');
                bool ok = r.verdict == expected &&
                          (r.verdict != core::Verdict::Complete ||
                           r.validated);
                if (!ok) {
                    ++walk_bad;
                    std::fprintf(stderr,
                                 "ifpbench: %s schedule %u: %s%s\n",
                                 cell.c_str(), i,
                                 core::verdictName(r.verdict),
                                 r.validated ? "" : " (not validated)");
                }
            }
            std::string walk_key = cell + "/walk" + std::to_string(walk);
            if (!b.checkDigest(walk_key, walk_digest))
                walk_bad = walk;
            b.tally(walk, walk_bad,
                    walk_key + ": " + std::to_string(walk_bad) +
                        " schedules failed");
        }
    }
}

struct WorkloadDef
{
    const char *name;
    void (*pass)(Bench &);
};

constexpr WorkloadDef kWorkloads[] = {
    {"fig14", passFig14},   {"fig15", passFig15},
    {"queues", passQueues}, {"serving", passServing},
    {"explore", passExplore},
};

/** What one pass measured. */
struct PassOutcome
{
    bool traced = false;
    double wall = 0.0;
    /** Tracer::perRun() and perRunSetup() at the end of the pass. */
    std::vector<double> runWall;
    std::vector<double> runSetup;
    double cycles = 0.0;
    /** Fold of every run digest; equal on every pass of a run. */
    std::uint64_t digest = 0;
    LayerTimes self{};
    Counts counts;
};

PassOutcome
runPass(Bench &b, void (*pass)(Bench &), unsigned index, bool traced)
{
    b.startPass(index, traced);
    b.tracer.open(Pass);
    pass(b);
    PassOutcome out;
    out.traced = traced;
    out.wall = b.tracer.close();
    out.self = b.tracer.self();
    out.runWall = b.tracer.perRun();
    out.runSetup = b.tracer.perRunSetup();
    out.cycles = b.counts.cycles;
    out.digest = b.passDigest;
    out.counts = std::move(b.counts);
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
percentile(std::vector<double> v, unsigned pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[(pct * (v.size() - 1)) / 100];
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Median over @p passes of @p fn. */
double
medianOf(const std::vector<const PassOutcome *> &passes,
         const std::function<double(const PassOutcome &)> &fn)
{
    std::vector<double> v;
    for (const PassOutcome *p : passes)
        v.push_back(fn(*p));
    return median(v);
}

/**
 * Sum over run indices of the smallest time any of the non-empty
 * @p passes took for that run, where @p times holds a pass's per-run
 * times. Every pass makes the same runs.
 */
double
sumOfFastestRuns(const std::vector<const PassOutcome *> &passes,
                 std::vector<double> PassOutcome::*times)
{
    std::vector<double> best = passes.front()->*times;
    for (const PassOutcome *p : passes) {
        const std::vector<double> &t = p->*times;
        for (std::size_t i = 0; i < best.size() && i < t.size(); ++i)
            best[i] = std::min(best[i], t[i]);
    }
    double sum = 0.0;
    for (double v : best)
        sum += v;
    return sum;
}

std::vector<Metric>
perLayerMetrics(const std::vector<const PassOutcome *> &traced,
                const std::vector<const PassOutcome *> &untraced)
{
    auto self = [&traced](Layer layer) {
        return medianOf(traced, [layer](const PassOutcome &p) {
            return p.self[layer];
        });
    };
    const double wall =
        medianOf(traced, [](const PassOutcome &p) { return p.wall; });
    const double untraced_wall =
        medianOf(untraced, [](const PassOutcome &p) { return p.wall; });
    const double run_s = self(CoreRun);
    // Counts repeat exactly from pass to pass; take the last one.
    const Counts &c = traced.back()->counts;

    std::vector<Metric> m = {
        {"core.run_s", run_s, "s"},
        {"core.setup_s", self(CoreSetup), "s"},
        {"core.teardown_s", self(CoreTeardown), "s"},
        {"workloads.make_s", self(WorkloadsMake), "s"},
        {"workloads.build_s", self(WorkloadsBuild), "s"},
        {"workloads.validate_s", self(WorkloadsValidate), "s"},
        {"gpu.enqueue_s", self(GpuEnqueue), "s"},
        {"explore.exhaustive_s", self(ExploreExhaustive), "s"},
        {"explore.schedule_s", self(ExploreSchedule), "s"},
        {"bench.self_frac", ratio(self(Pass), wall), "ratio"},
        {"trace_overhead_frac", ratio(wall, untraced_wall) - 1.0, "ratio"},
        {"sim.cycles", c.cycles, "cycles"},
        {"sim.events", c.events, "count"},
        {"sim.events_per_cycle", ratio(c.events, c.cycles), "ratio"},
        {"sim.ns_per_event", ratio(run_s * 1e9, c.events), "ns"},
        {"gpu.cu.instructions", c.instructions, "count"},
        {"gpu.cu.atomics", c.atomics, "count"},
        {"gpu.cu.sleeps", c.sleeps, "count"},
        {"gpu.cu.active_cycles", c.activeCycles, "cycles"},
        {"gpu.ns_per_instruction", ratio(run_s * 1e9, c.instructions),
         "ns"},
        {"mem.requests", c.requests, "count"},
        {"mem.l1.hit_ratio", ratio(c.l1Hits, c.l1Hits + c.l1Misses),
         "ratio"},
        {"mem.l2.hits", c.l2Hits, "count"},
        {"mem.l2.misses", c.l2Misses, "count"},
        {"mem.l2.atomics", c.l2Atomics, "count"},
        {"mem.l2.wait_fails", c.l2WaitFails, "count"},
        {"mem.l2.queue_ticks", c.l2QueueTicks, "ticks"},
        {"mem.dram.reads", c.dramReads, "count"},
        {"mem.dram.writes", c.dramWrites, "count"},
        {"mem.dram.queue_ticks", c.dramQueueTicks, "ticks"},
        {"syncmon.registrations", c.registrations, "count"},
        {"syncmon.resumes", c.resumes, "count"},
        {"syncmon.spills", c.spills, "count"},
        {"syncmon.log_full_retries", c.logFullRetries, "count"},
        {"syncmon.predict_accuracy",
         c.predicted > 0 ? 1.0 - c.mispredicted / c.predicted : 0.0,
         "ratio"},
        {"cp.context_saves", c.contextSaves, "count"},
        {"cp.context_restores", c.contextRestores, "count"},
        {"cp.log_drained", c.logDrained, "count"},
        {"cp.spilled_resumes", c.spilledResumes, "count"},
        {"cp.rescues_fired", c.rescuesFired, "count"},
        {"gpu.dispatcher.dispatches", c.dispatches, "count"},
        {"gpu.dispatcher.swap_outs", c.swapOuts, "count"},
        {"gpu.dispatcher.swap_ins", c.swapIns, "count"},
        {"gpu.dispatcher.cu_reassignments", c.cuReassignments, "count"},
        {"cp.admission.p50_turnaround_cycles",
         percentile(c.turnarounds, 50), "cycles"},
        {"cp.admission.p99_turnaround_cycles",
         percentile(c.turnarounds, 99), "cycles"},
        {"cp.admission.slo_miss_frac", ratio(c.sloMisses, c.sloTracked),
         "ratio"},
        {"cp.admission.fairness", ratio(c.fairnessSum, c.servings),
         "ratio"},
        {"explore.schedules", c.schedules, "count"},
        {"explore.pruned", c.pruned, "count"},
        {"explore.por_skipped", c.porSkipped, "count"},
        {"explore.choice_points", c.choicePoints, "count"},
        {"explore.schedules_per_s", ratio(c.schedules, wall), "1/s"},
    };
    static const char *kStallNames[sim::numStallReasons] = {
        "running", "spin", "waiting", "save_restore", "dispatch_queue",
        "memory"};
    for (std::size_t k = 0; k < sim::numStallReasons; ++k) {
        m.push_back({std::string("core.stall.") + kStallNames[k] + "_frac",
                     ratio(c.stall[k], c.wgLifetime), "ratio"});
    }
    return m;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(
        stderr,
        "ifpbench: %s\n"
        "usage: ifpbench --workload fig14|fig15|queues|serving|explore\n"
        "                [--seed N] [--seconds S] [--trace 0|1] "
        "[--smoke]\n"
        "                [--trace-out FILE] [--digests-out FILE]\n"
        "Run from the repository root (reads bench/e2e/reference.json)."
        "\n",
        why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        auto number = [&](const std::string &text) {
            char *end = nullptr;
            double v = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || !std::isfinite(v) || v < 0)
                usage(("bad value for " + arg + ": " + text).c_str());
            return v;
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            std::string text = value();
            char *end = nullptr;
            opt.seed = std::strtoull(text.c_str(), &end, 10);
            if (text.empty() || *end != '\0')
                usage(("bad seed: " + text).c_str());
        } else if (arg == "--seconds") {
            opt.seconds = number(value());
        } else if (arg == "--trace") {
            std::string text = value();
            if (text != "0" && text != "1")
                usage("--trace takes 0 or 1");
            opt.trace = text == "1";
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--trace-out") {
            opt.traceOut = value();
        } else if (arg == "--digests-out") {
            opt.digestsOut = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    return opt;
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("  %s\n", title);
    for (const Metric &m : metrics)
        std::printf("    %-36s %-16.10g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads) {
        if (opt.workload == w.name)
            def = &w;
    }
    if (!def)
        usage(("unknown workload '" + opt.workload + "'").c_str());

    Bench b(opt);
    std::vector<PassOutcome> passes;
    unsigned index = 0;
    // Warm-up: caches, allocator arenas and lazy set-up settle before
    // timing. Its runs are still checked.
    std::optional<std::uint64_t> warmup_digest;
    if (!opt.smoke)
        warmup_digest = runPass(b, def->pass, index++, false).digest;
    const Clock::time_point start = Clock::now();
    auto elapsed = [&start] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    const double seconds = opt.smoke ? 0.0 : opt.seconds;
    bool have_traced = false, have_untraced = false;
    do {
        // With --trace 1, traced and untraced passes alternate.
        bool traced = opt.trace && passes.size() % 2 == 0;
        passes.push_back(runPass(b, def->pass, index++, traced));
        (traced ? have_traced : have_untraced) = true;
    } while (elapsed() < seconds ||
             (opt.trace && !(have_traced && have_untraced)) ||
             !have_untraced);

    std::vector<const PassOutcome *> traced, untraced;
    const std::uint64_t first_digest =
        warmup_digest.value_or(passes.front().digest);
    for (const PassOutcome &p : passes) {
        (p.traced ? traced : untraced).push_back(&p);
        b.check(p.digest == first_digest,
                "a pass simulated different statistics than the first "
                "(nondeterminism)");
    }

    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    const double peak_rss_mb =
        static_cast<double>(usage_now.ru_maxrss) / 1024.0;

    // Other load on a shared host only ever slows a run, in bursts of
    // seconds to minutes, so each run's fastest time over the passes is
    // the steadiest estimate of the program's own speed (README.md,
    // "End-to-end metrics"). Every pass simulates the same cycles (the
    // digest check above), so the rate follows from the summed time.
    const double wall_s = sumOfFastestRuns(untraced, &PassOutcome::runWall);
    std::vector<Metric> e2e = {
        {"wall_s", wall_s, "s"},
        {"sim_cycles_per_s", ratio(untraced.front()->cycles, wall_s),
         "cycles/s"},
        {"setup_s", sumOfFastestRuns(untraced, &PassOutcome::runSetup), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
    for (const Metric &m : e2e)
        b.check(std::isfinite(m.value) && m.value > 0.0,
                m.name + " is not a positive number");

    if (opt.workload == "fig15" && !opt.smoke) {
        char geo[32];
        std::snprintf(geo, sizeof(geo), "%.2f", b.fig15Geomean);
        std::printf("fig15 AWG-over-Timeout geomean: %s (Figure 15 "
                    "reproduction: 3.90)\n",
                    geo);
        b.check(std::string(geo) == "3.90",
                std::string("fig15 AWG-over-Timeout geomean ") + geo +
                    " != 3.90");
    }

    std::printf("ifpbench %s: seed %llu, %zu timed passes (%zu traced) "
                "after %s, %s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), passes.size(),
                traced.size(), opt.smoke ? "no warm-up" : "1 warm-up pass",
                opt.smoke ? "smoke sizes" : "full sizes");
    printMetrics(("end to end (each run at its fastest over n=" +
                  std::to_string(untraced.size()) + " untraced passes)")
                     .c_str(),
                 e2e);
    std::printf("    %-36s %-16.10g ratio (%llu of %llu operations)\n",
                "failed_frac",
                ratio(static_cast<double>(b.failed),
                      static_cast<double>(b.attempted)),
                static_cast<unsigned long long>(b.failed),
                static_cast<unsigned long long>(b.attempted));

    // The JSON result of a traced run holds the per-layer metrics
    // only, as BENCHMARK.json's per_layer list; its end-to-end metrics
    // are in the table above.
    std::vector<Metric> reported = e2e;
    if (opt.trace) {
        std::vector<Metric> layers = perLayerMetrics(traced, untraced);
        printMetrics(("per layer (median of n=" +
                      std::to_string(traced.size()) + " traced passes)")
                         .c_str(),
                     layers);
        reported = layers;
        if (!opt.traceOut.empty()) {
            std::ofstream os(opt.traceOut);
            if (!os)
                ifp_fatal("cannot write '%s'", opt.traceOut.c_str());
            b.tracer.writeChromeTrace(os, opt.workload);
            std::printf("  trace: %zu spans in %s\n",
                        b.tracer.spans().size(), opt.traceOut.c_str());
        }
    }
    b.writeDigests();

    const bool correct = b.failed == 0 && b.checksOk;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(b.attempted),
                static_cast<unsigned long long>(b.failed));
    for (std::size_t i = 0; i < reported.size(); ++i) {
        const Metric &m = reported[i];
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
