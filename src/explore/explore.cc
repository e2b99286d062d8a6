#include "explore/explore.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <tuple>

#include "analysis/interference.hh"
#include "analysis/lint.hh"
#include "sim/logging.hh"

namespace ifp::explore {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t
fnvMix(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (i * 8)) & 0xff;
        hash *= kFnvPrime;
    }
    return hash;
}

std::uint64_t
fnvString(std::uint64_t hash, const std::string &s)
{
    for (unsigned char c : s) {
        hash ^= c;
        hash *= kFnvPrime;
    }
    return hash;
}

/** splitmix64 finalizer: decorrelates consecutive walk indices. */
std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

core::RunConfig
litmusRunConfig(const workloads::LitmusSpec &spec, core::Policy policy,
                const LitmusRunConfig &cfg)
{
    core::RunConfig run;
    run.gpu.numCus = spec.numCus;
    run.policy.policy = policy;
    run.deadlockWindowCycles = cfg.deadlockWindowCycles;
    run.maxCycles = cfg.maxCycles;
    return run;
}

workloads::WorkloadParams
litmusParams(const workloads::LitmusSpec &spec,
             const core::PolicyConfig &policy)
{
    workloads::WorkloadParams params;
    params.numWgs = spec.numWgs;
    params.wgsPerGroup = spec.maxWgsPerCu;
    params.wiPerWg = 1;
    params.iters = 1;
    return workloads::paramsForPolicy(params, policy);
}

void
countVerdict(VerdictCounts &counts, core::Verdict verdict)
{
    auto idx = static_cast<std::size_t>(verdict);
    ifp_assert(idx < counts.size(), "verdict out of histogram range");
    ++counts[idx];
}

} // namespace

std::uint64_t
scheduleSeed(const std::string &litmus, core::Policy policy,
             std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t h = fnvString(kFnvOffset, litmus);
    h = fnvString(h, core::policyName(policy));
    h = fnvMix(h, seed);
    return splitmix(h + index);
}

std::uint64_t
machineStateHash(core::GpuSystem &system)
{
    std::uint64_t h = kFnvOffset;
    for (const auto &wg : system.dispatcher().workgroups()) {
        h = fnvMix(h, static_cast<std::uint64_t>(wg->id));
        h = fnvMix(h, static_cast<std::uint64_t>(wg->state));
        h = fnvMix(h, static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(wg->cuId)));
        h = fnvMix(h, wg->hasWaitCond ? 1 : 0);
        h = fnvMix(h, wg->waitAddr);
        h = fnvMix(h, static_cast<std::uint64_t>(wg->waitExpected));
        h = fnvMix(h, wg->resumePending ? 1 : 0);
        h = fnvMix(h, wg->doneWfs);
    }
    h = fnvMix(h, system.memory().mutations());
    h = fnvMix(h, system.dispatcher().numCompleted());
    return h;
}

ScheduleResult
runLitmusSchedule(const workloads::LitmusWorkload &litmus,
                  core::Policy policy, sim::SchedOracle *oracle,
                  const LitmusRunConfig &cfg,
                  const std::function<void(core::GpuSystem &)>
                      &on_system)
{
    const workloads::LitmusSpec &spec = litmus.spec();
    core::RunConfig run_cfg = litmusRunConfig(spec, policy, cfg);
    run_cfg.schedOracle = oracle;

    core::GpuSystem system(run_cfg);
    if (on_system)
        on_system(system);

    workloads::WorkloadParams params = litmusParams(spec, run_cfg.policy);
    isa::Kernel kernel = litmus.build(system, params);

    core::RunResult run = system.run(
        kernel,
        [&](const mem::BackingStore &store, std::string &err) {
            return litmus.validate(store, params, err);
        });

    ScheduleResult result;
    result.verdict = run.verdict;
    result.gpuCycles = run.gpuCycles;
    result.validated = run.validated;
    return result;
}

WalkResult
randomWalk(const workloads::LitmusWorkload &litmus,
           core::Policy policy, std::uint64_t seed,
           unsigned num_schedules, const LitmusRunConfig &cfg)
{
    WalkResult walk;
    walk.schedules.reserve(num_schedules + 1);

    ScheduleResult stock =
        runLitmusSchedule(litmus, policy, nullptr, cfg);
    countVerdict(walk.counts, stock.verdict);
    walk.schedules.push_back(stock);

    for (unsigned i = 0; i < num_schedules; ++i) {
        RandomOracle oracle(scheduleSeed(litmus.spec().name, policy,
                                         seed, i));
        ScheduleResult r =
            runLitmusSchedule(litmus, policy, &oracle, cfg);
        r.choicePoints = oracle.decisions;
        countVerdict(walk.counts, r.verdict);
        walk.schedules.push_back(r);
    }
    return walk;
}

namespace {

/** One pending exploration: a prescription plus its sleep set. */
struct PendingRun
{
    std::vector<unsigned> prescription;
    std::vector<analysis::SchedAction> sleep;
};

/** The scheduling action behind alternative @p k of branch @p b. */
analysis::SchedAction
branchAction(const PrefixOracle::Branch &b, unsigned k)
{
    analysis::SchedAction a;
    a.site = b.site;
    if (b.actors.size() == b.n && k < b.n) {
        a.wg = b.actors[k];
        if (b.actorPcs.size() == b.n)
            a.pc = b.actorPcs[k];
    }
    return a;
}

} // namespace

ExhaustiveResult
exhaustive(const workloads::LitmusWorkload &litmus,
           core::Policy policy, const ExhaustiveConfig &cfg)
{
    ExhaustiveResult result;

    // With POR on, build the static commutativity oracle once from
    // the same kernel image every schedule of this cell executes
    // (build() is deterministic for a fixed spec and style).
    std::unique_ptr<analysis::CommutativityOracle> commut;
    if (cfg.por) {
        core::RunConfig run_cfg =
            litmusRunConfig(litmus.spec(), policy, cfg.run);
        core::GpuSystem scratch(run_cfg);
        isa::Kernel kernel =
            litmus.build(scratch, litmusParams(litmus.spec(), run_cfg.policy));
        commut = std::make_unique<analysis::CommutativityOracle>(
            kernel,
            analysis::makeLaunchContext(kernel, run_cfg.gpu.numCus));
    }
    auto independent = [&](const analysis::SchedAction &x,
                           const analysis::SchedAction &y) {
        return commut && commut->independent(x, y);
    };

    // Restart-based DFS: each frontier entry is a prescription of
    // explicit choices; the run replays it and takes the stock pick
    // everywhere after, recording the branch structure it crossed.
    // Since the machine is deterministic, (state hash, site, arity,
    // alternative) identifies a subtree — the memo set prunes
    // re-entries from equivalent states reached along different
    // prefixes.
    std::deque<PendingRun> frontier;
    frontier.push_back({});
    std::set<std::tuple<std::uint64_t, sim::ChoicePoint, unsigned,
                        unsigned>>
        visited;

    while (!frontier.empty() &&
           result.schedulesRun < cfg.maxSchedules) {
        PendingRun entry = std::move(frontier.front());
        frontier.pop_front();
        const std::vector<unsigned> &prescription = entry.prescription;
        result.maxPrefixSeen =
            std::max(result.maxPrefixSeen, prescription.size());

        PrefixOracle oracle(prescription, cfg.maxPrefixDepth);
        ScheduleResult r = runLitmusSchedule(
            litmus, policy, &oracle, cfg.run,
            [&](core::GpuSystem &system) {
                oracle.setStateProbe(
                    [&system] { return machineStateHash(system); });
                oracle.setActorPcProbe([&system](int wg_id) -> int {
                    for (const auto &wg :
                         system.dispatcher().workgroups()) {
                        if (wg->id != wg_id)
                            continue;
                        if (wg->wavefronts.size() != 1)
                            return -1;
                        return static_cast<int>(
                            wg->wavefronts[0]->pc);
                    }
                    return -1;
                });
            });
        r.choicePoints = oracle.decisions;
        ++result.schedulesRun;
        countVerdict(result.counts, r.verdict);

        // Branch on every choice point past the prescription (the
        // replayed prefix was already expanded by its parent run).
        // The sleep set inherited from the parent travels down the
        // stock continuation, shedding members that conflict with
        // each taken action.
        std::vector<analysis::SchedAction> sleep =
            std::move(entry.sleep);
        const auto &branches = oracle.branches();
        for (std::size_t i = prescription.size();
             i < branches.size(); ++i) {
            const PrefixOracle::Branch &b = branches[i];
            const analysis::SchedAction taken_action =
                branchAction(b, b.taken);

            // Persistent-set closure of {taken} over this branch's
            // candidates: start from the stock pick and add every
            // candidate dependent with a member. Unknown actors are
            // dependent with everything, so any identification gap
            // degrades to the full (unreduced) set.
            std::vector<char> in_closure(b.n, 0);
            in_closure[b.taken] = 1;
            if (cfg.por) {
                std::vector<analysis::SchedAction> acts;
                acts.reserve(b.n);
                for (unsigned k = 0; k < b.n; ++k)
                    acts.push_back(branchAction(b, k));
                bool grown = true;
                while (grown) {
                    grown = false;
                    for (unsigned k = 0; k < b.n; ++k) {
                        if (in_closure[k])
                            continue;
                        for (unsigned j = 0; j < b.n; ++j) {
                            if (in_closure[j] &&
                                !independent(acts[k], acts[j])) {
                                in_closure[k] = 1;
                                grown = true;
                                break;
                            }
                        }
                    }
                }
            }

            // Alternatives expanded earlier at this branch; later
            // siblings need not re-explore orders that only commute
            // with them.
            std::vector<analysis::SchedAction> enqueued;
            for (unsigned alt = 0; alt < b.n; ++alt) {
                if (alt == b.taken)
                    continue;
                const analysis::SchedAction alt_action =
                    branchAction(b, alt);
                if (cfg.por) {
                    bool asleep = alt_action.known() &&
                        std::find(sleep.begin(), sleep.end(),
                                  alt_action) != sleep.end();
                    if (asleep || !in_closure[alt]) {
                        ++result.porSkipped;
                        continue;
                    }
                }
                if (!visited
                         .emplace(b.stateHash, b.site, b.n, alt)
                         .second) {
                    ++result.pruned;
                    continue;
                }
                PendingRun child;
                child.prescription.reserve(i + 1);
                for (std::size_t j = 0; j < i; ++j)
                    child.prescription.push_back(branches[j].taken);
                child.prescription.push_back(alt);
                if (cfg.por) {
                    for (const analysis::SchedAction &s : sleep) {
                        if (independent(s, alt_action))
                            child.sleep.push_back(s);
                    }
                    if (independent(taken_action, alt_action))
                        child.sleep.push_back(taken_action);
                    for (const analysis::SchedAction &s : enqueued) {
                        if (independent(s, alt_action))
                            child.sleep.push_back(s);
                    }
                    enqueued.push_back(alt_action);
                }
                frontier.push_back(std::move(child));
            }

            // Continue down the stock pick: sleep-set members that
            // conflict with the action just taken wake up (are
            // dropped). An unknown taken action conflicts with
            // everything and clears the set.
            if (cfg.por && !sleep.empty()) {
                std::vector<analysis::SchedAction> kept;
                for (const analysis::SchedAction &s : sleep) {
                    if (independent(s, taken_action))
                        kept.push_back(s);
                }
                sleep = std::move(kept);
            }
        }
    }

    result.frontierExhausted = frontier.empty();
    return result;
}

std::vector<CellReport>
crossValidate(const workloads::LitmusWorkload &litmus,
              std::uint64_t seed, unsigned schedules,
              const LitmusRunConfig &cfg)
{
    std::vector<CellReport> cells;
    for (const auto &[policy, expected] : litmus.spec().expected) {
        CellReport cell;
        cell.litmus = litmus.spec().name;
        cell.policy = policy;
        cell.expected = expected;

        WalkResult walk =
            randomWalk(litmus, policy, seed, schedules, cfg);
        cell.observed = walk.counts;
        cell.schedules = walk.schedules.size();
        for (const ScheduleResult &r : walk.schedules) {
            if (r.verdict == core::Verdict::Complete && !r.validated)
                ++cell.invalid;
        }

        cell.ok = cell.invalid == 0;
        for (std::size_t v = 0; v < cell.observed.size(); ++v) {
            if (cell.observed[v] != 0 &&
                v != static_cast<std::size_t>(expected))
                cell.ok = false;
        }
        cells.push_back(std::move(cell));
    }
    return cells;
}

std::vector<LintCellReport>
lintCrossCheck(const workloads::LitmusWorkload &litmus)
{
    const workloads::LitmusSpec &spec = litmus.spec();
    static const core::SyncStyle kStyles[] = {
        core::SyncStyle::Busy,
        core::SyncStyle::SleepBackoff,
        core::SyncStyle::WaitInstr,
        core::SyncStyle::WaitAtomic,
    };

    std::vector<LintCellReport> cells;
    for (core::SyncStyle style : kStyles) {
        LintCellReport cell;
        cell.litmus = spec.name;
        cell.style = style;

        // Scratch machine: build() needs a system for its buffer
        // allocations, exactly like tools/ifplint.
        core::RunConfig run_cfg;
        run_cfg.gpu.numCus = spec.numCus;
        core::GpuSystem scratch(run_cfg);

        workloads::WorkloadParams params;
        params.numWgs = spec.numWgs;
        params.wgsPerGroup = spec.maxWgsPerCu;
        params.wiPerWg = 1;
        params.iters = 1;
        params.style = style;
        isa::Kernel kernel = litmus.build(scratch, params);

        analysis::Report report = analysis::runLint(
            kernel,
            analysis::makeLaunchContext(kernel, run_cfg.gpu.numCus));

        std::vector<std::string> found;
        for (const analysis::Diagnostic &d : report.diagnostics) {
            if (!d.suppressed)
                found.push_back(d.code);
        }
        std::sort(found.begin(), found.end());
        found.erase(std::unique(found.begin(), found.end()),
                    found.end());

        std::vector<std::string> expected;
        for (const workloads::LitmusLintExpectation &e : spec.lint) {
            if (e.style == style)
                expected.push_back(e.code);
        }
        std::sort(expected.begin(), expected.end());

        for (const std::string &code : found) {
            if (!std::binary_search(expected.begin(), expected.end(),
                                    code))
                cell.unexpected.push_back(code);
        }
        for (const std::string &code : expected) {
            if (!std::binary_search(found.begin(), found.end(), code))
                cell.missing.push_back(code);
        }
        cell.ok = cell.unexpected.empty() && cell.missing.empty();
        cells.push_back(std::move(cell));
    }
    return cells;
}

} // namespace ifp::explore
