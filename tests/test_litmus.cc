/**
 * @file
 * Litmus suite + schedule exploration (`ctest -L litmus`).
 *
 * The contract under test: every (litmus, policy) cell's observed
 * core::Verdict — over the stock schedule, seeded random walks and
 * the bounded exhaustive frontier — equals the annotation in
 * workloads/litmus.cc, the walks are reproducible from
 * (litmus, policy, seed), the static ifplint expectations hold, and
 * an oracle that always takes the preferred choice is byte-identical
 * to running with no oracle at all.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explore.hh"
#include "workloads/litmus.hh"

namespace {

using ifp::core::Policy;
using ifp::core::Verdict;
using ifp::explore::LitmusRunConfig;
using ifp::workloads::LitmusWorkload;

/** Stats-bearing variant of runLitmusSchedule for parity checks. */
struct FullRun
{
    ifp::core::RunResult result;
    std::string stats;
};

FullRun
runWithStats(const LitmusWorkload &litmus, Policy policy,
             ifp::sim::SchedOracle *oracle)
{
    const ifp::workloads::LitmusSpec &spec = litmus.spec();
    ifp::core::RunConfig cfg;
    cfg.gpu.numCus = spec.numCus;
    cfg.policy.policy = policy;
    cfg.deadlockWindowCycles = 200'000;
    cfg.maxCycles = 30'000'000;
    cfg.schedOracle = oracle;

    ifp::core::GpuSystem system(cfg);
    ifp::workloads::WorkloadParams params;
    params.numWgs = spec.numWgs;
    params.wgsPerGroup = spec.maxWgsPerCu;
    params.wiPerWg = 1;
    params.iters = 1;
    params.style = ifp::core::styleFor(policy);

    ifp::isa::Kernel kernel = litmus.build(system, params);
    FullRun full;
    full.result = system.run(
        kernel,
        [&](const ifp::mem::BackingStore &store, std::string &err) {
            return litmus.validate(store, params, err);
        });
    std::ostringstream os;
    system.dumpStats(os);
    full.stats = os.str();
    return full;
}

std::string
countsToString(const ifp::explore::VerdictCounts &counts)
{
    std::ostringstream os;
    for (std::size_t v = 0; v < counts.size(); ++v) {
        if (counts[v]) {
            os << ifp::core::verdictName(static_cast<Verdict>(v))
               << "x" << counts[v] << " ";
        }
    }
    return os.str();
}

TEST(Litmus, RegistryIsWellFormed)
{
    const auto &specs = ifp::workloads::litmusSpecs();
    ASSERT_GE(specs.size(), 5u);
    std::set<std::string> names;
    for (const auto &spec : specs) {
        EXPECT_TRUE(names.insert(spec.name).second)
            << "duplicate litmus name " << spec.name;
        EXPECT_LE(spec.numWgs, 8u)
            << spec.name << ": litmuses must stay exhaustively "
            << "explorable (<= 8 WGs, and above 4 only with a "
            << "POR-friendly shape)";
        // Every cell of the policy matrix must be annotated.
        for (Policy p : ifp::workloads::litmusPolicies()) {
            auto litmus = ifp::workloads::makeLitmus(spec.name);
            EXPECT_NE(litmus->expectedVerdict(p), Verdict::Unknown);
        }
    }
}

TEST(Litmus, AnnotationsSeparatePolicies)
{
    // The suite exists to show the progress models differ: at least
    // one litmus must annotate different verdicts for different
    // policies (mutual-pair: Deadlock / Livelock / Complete).
    bool separated = false;
    for (const auto &spec : ifp::workloads::litmusSpecs()) {
        std::set<Verdict> verdicts;
        for (const auto &[policy, verdict] : spec.expected)
            verdicts.insert(verdict);
        if (verdicts.size() > 1)
            separated = true;
    }
    EXPECT_TRUE(separated);
}

TEST(Litmus, FullMatrixAgreesWithAnnotations)
{
    for (const std::string &name : ifp::workloads::litmusNames()) {
        auto litmus = ifp::workloads::makeLitmus(name);
        auto cells = ifp::explore::crossValidate(
            *litmus, /*seed=*/1, /*schedules=*/3);
        ASSERT_EQ(cells.size(), litmus->spec().expected.size());
        for (const auto &cell : cells) {
            EXPECT_TRUE(cell.ok)
                << cell.litmus << " under "
                << ifp::core::policyName(cell.policy)
                << ": expected "
                << ifp::core::verdictName(cell.expected)
                << ", observed " << countsToString(cell.observed)
                << "(invalid=" << cell.invalid << ")";
        }
    }
}

TEST(Litmus, StockVerdictsDifferAcrossPolicies)
{
    // Observed (not just annotated) separation: the same mutual-pair
    // kernel deadlocks on Baseline and completes under Timeout/AWG.
    auto litmus = ifp::workloads::makeLitmus("mutual-pair");
    auto baseline = ifp::explore::runLitmusSchedule(
        *litmus, Policy::Baseline, nullptr);
    auto timeout = ifp::explore::runLitmusSchedule(
        *litmus, Policy::Timeout, nullptr);
    EXPECT_EQ(baseline.verdict, Verdict::Deadlock);
    EXPECT_EQ(timeout.verdict, Verdict::Complete);
    EXPECT_TRUE(timeout.validated);
}

TEST(Litmus, BudgetExpiryMidRetryWindowIsExhausted)
{
    // A Sleep-policy mutual pair is a livelock: the resident WG
    // keeps sleep-spinning while its partner is stranded. With a
    // generous budget the oracle needs two stalled-window samples to
    // see the retry delta and says Livelock; if the cycle budget
    // expires before that second window completes, the run must
    // honestly report Exhausted — the machine was still retrying,
    // never classified.
    auto litmus = ifp::workloads::makeLitmus("mutual-pair");

    LitmusRunConfig generous;
    generous.deadlockWindowCycles = 200'000;
    generous.maxCycles = 30'000'000;
    auto livelock = ifp::explore::runLitmusSchedule(
        *litmus, Policy::Sleep, nullptr, generous);
    EXPECT_EQ(livelock.verdict, Verdict::Livelock);

    LitmusRunConfig tight;
    tight.deadlockWindowCycles = 200'000;
    tight.maxCycles = 300'000;  // expires mid second window
    auto exhausted = ifp::explore::runLitmusSchedule(
        *litmus, Policy::Sleep, nullptr, tight);
    EXPECT_EQ(exhausted.verdict, Verdict::Exhausted);
}

TEST(Litmus, RandomWalkReproducible)
{
    auto litmus = ifp::workloads::makeLitmus("mutual-pair");
    auto a = ifp::explore::randomWalk(*litmus, Policy::Timeout,
                                      /*seed=*/7, /*schedules=*/5);
    auto b = ifp::explore::randomWalk(*litmus, Policy::Timeout,
                                      /*seed=*/7, /*schedules=*/5);
    ASSERT_EQ(a.schedules.size(), b.schedules.size());
    for (std::size_t i = 0; i < a.schedules.size(); ++i) {
        EXPECT_EQ(a.schedules[i].verdict, b.schedules[i].verdict);
        EXPECT_EQ(a.schedules[i].gpuCycles, b.schedules[i].gpuCycles);
        EXPECT_EQ(a.schedules[i].choicePoints,
                  b.schedules[i].choicePoints);
    }
    EXPECT_EQ(a.counts, b.counts);
}

TEST(Litmus, ScheduleSeedsAreCellAndIndexSpecific)
{
    using ifp::explore::scheduleSeed;
    EXPECT_EQ(scheduleSeed("mutual-pair", Policy::Awg, 1, 0),
              scheduleSeed("mutual-pair", Policy::Awg, 1, 0));
    EXPECT_NE(scheduleSeed("mutual-pair", Policy::Awg, 1, 0),
              scheduleSeed("mutual-pair", Policy::Awg, 1, 1));
    EXPECT_NE(scheduleSeed("mutual-pair", Policy::Awg, 1, 0),
              scheduleSeed("mutual-pair", Policy::Timeout, 1, 0));
    EXPECT_NE(scheduleSeed("mutual-pair", Policy::Awg, 1, 0),
              scheduleSeed("occ-barrier", Policy::Awg, 1, 0));
    EXPECT_NE(scheduleSeed("mutual-pair", Policy::Awg, 1, 0),
              scheduleSeed("mutual-pair", Policy::Awg, 2, 0));
}

TEST(Litmus, ExhaustiveTerminatesAndAgrees)
{
    ifp::explore::ExhaustiveConfig small;
    small.maxSchedules = 40;
    small.maxPrefixDepth = 8;

    // The >= 6-WG litmuses are only tractable under partial-order
    // reduction; a tighter cycle budget tames their Exhausted cells
    // (AWG on ring-6) without changing any classification — livelock
    // needs ~3 deadlock windows, well under the 2M-cycle budget.
    ifp::explore::ExhaustiveConfig big = small;
    big.maxSchedules = 400;
    big.por = true;
    big.run.maxCycles = 2'000'000;

    for (const std::string &name : ifp::workloads::litmusNames()) {
        auto litmus = ifp::workloads::makeLitmus(name);
        const ifp::explore::ExhaustiveConfig &cfg =
            litmus->spec().numWgs > 4 ? big : small;
        for (const auto &[policy, expected] :
             litmus->spec().expected) {
            auto r = ifp::explore::exhaustive(*litmus, policy, cfg);
            EXPECT_GE(r.schedulesRun, 1u);
            EXPECT_TRUE(r.frontierExhausted)
                << name << "/" << ifp::core::policyName(policy)
                << " hit the schedule cap — grow maxSchedules or "
                << "shrink the litmus";
            for (std::size_t v = 0; v < r.counts.size(); ++v) {
                if (v == static_cast<std::size_t>(expected))
                    continue;
                EXPECT_EQ(r.counts[v], 0u)
                    << name << "/" << ifp::core::policyName(policy)
                    << ": observed " << countsToString(r.counts)
                    << "but annotation says "
                    << ifp::core::verdictName(expected);
            }
        }
    }
}

TEST(Litmus, PorAgreesAndReduces)
{
    // The partial-order reduction contract: on every (litmus, policy)
    // cell the POR DFS observes exactly the verdicts the unreduced
    // DFS observes, over no more schedules — and strictly fewer in
    // aggregate (the >= 6-WG shapes guarantee real commuting pairs).
    ifp::explore::ExhaustiveConfig base;
    base.maxSchedules = 4000;
    base.maxPrefixDepth = 8;
    base.run.maxCycles = 2'000'000;
    ifp::explore::ExhaustiveConfig por = base;
    por.por = true;

    std::uint64_t total_base = 0;
    std::uint64_t total_por = 0;
    std::uint64_t total_skipped = 0;
    for (const std::string &name : ifp::workloads::litmusNames()) {
        auto litmus = ifp::workloads::makeLitmus(name);
        for (const auto &[policy, expected] :
             litmus->spec().expected) {
            auto full = ifp::explore::exhaustive(*litmus, policy,
                                                 base);
            auto reduced = ifp::explore::exhaustive(*litmus, policy,
                                                    por);
            ASSERT_TRUE(full.frontierExhausted)
                << name << "/" << ifp::core::policyName(policy);
            ASSERT_TRUE(reduced.frontierExhausted)
                << name << "/" << ifp::core::policyName(policy);
            for (std::size_t v = 0; v < full.counts.size(); ++v) {
                EXPECT_EQ(full.counts[v] != 0,
                          reduced.counts[v] != 0)
                    << name << "/" << ifp::core::policyName(policy)
                    << ": verdict support differs at "
                    << ifp::core::verdictName(
                           static_cast<Verdict>(v))
                    << " (full " << countsToString(full.counts)
                    << ", por " << countsToString(reduced.counts)
                    << ")";
            }
            EXPECT_LE(reduced.schedulesRun, full.schedulesRun)
                << name << "/" << ifp::core::policyName(policy);
            total_base += full.schedulesRun;
            total_por += reduced.schedulesRun;
            total_skipped += reduced.porSkipped;
        }
    }
    EXPECT_LT(total_por, total_base)
        << "POR never skipped anything across the whole suite";
    EXPECT_GT(total_skipped, 0u);
    std::cout << "[          ] POR: " << total_por << " of "
              << total_base << " schedules ("
              << total_skipped << " alternatives skipped)\n";
}

TEST(Litmus, PorMakesBigLitmusesTractable)
{
    // pair-grid-6's unreduced schedule space outgrows a small cap at
    // depth 24; POR collapses the cross-pair interleavings and
    // exhausts the frontier within it.
    auto litmus = ifp::workloads::makeLitmus("pair-grid-6");
    ifp::explore::ExhaustiveConfig cfg;
    cfg.maxSchedules = 50;
    cfg.maxPrefixDepth = 24;

    auto full = ifp::explore::exhaustive(*litmus, Policy::Baseline,
                                         cfg);
    EXPECT_FALSE(full.frontierExhausted)
        << "unreduced exploration fit the cap; deepen the litmus so "
        << "the tractability claim stays meaningful";

    cfg.por = true;
    auto reduced = ifp::explore::exhaustive(*litmus, Policy::Baseline,
                                            cfg);
    EXPECT_TRUE(reduced.frontierExhausted);
    EXPECT_GT(reduced.porSkipped, 0u);
    for (std::size_t v = 0; v < reduced.counts.size(); ++v) {
        if (v == static_cast<std::size_t>(Verdict::Complete))
            continue;
        EXPECT_EQ(reduced.counts[v], 0u);
    }
}

TEST(Litmus, PreferredOracleIsByteIdenticalToNoOracle)
{
    // The oracle plumbing itself must not perturb the machine: an
    // oracle that always takes the preferred choice reproduces the
    // stock schedule bit for bit (same verdict, cycles and full
    // stats dump), while proving the choice sites actually fire.
    std::uint64_t total_decisions = 0;
    for (const std::string &name : ifp::workloads::litmusNames()) {
        auto litmus = ifp::workloads::makeLitmus(name);
        for (const auto &[policy, expected] :
             litmus->spec().expected) {
            FullRun stock = runWithStats(*litmus, policy, nullptr);
            ifp::explore::PreferredOracle oracle;
            FullRun steered = runWithStats(*litmus, policy, &oracle);
            EXPECT_EQ(stock.result.verdict, steered.result.verdict)
                << name << "/" << ifp::core::policyName(policy);
            EXPECT_EQ(stock.result.gpuCycles,
                      steered.result.gpuCycles)
                << name << "/" << ifp::core::policyName(policy);
            EXPECT_EQ(stock.stats, steered.stats)
                << name << "/" << ifp::core::policyName(policy);
            total_decisions += oracle.decisions;
        }
    }
    EXPECT_GT(total_decisions, 0u)
        << "no choice point ever had more than one candidate — the "
        << "exploration surface is dead";
}

TEST(Litmus, LintExpectationsHold)
{
    for (const std::string &name : ifp::workloads::litmusNames()) {
        auto litmus = ifp::workloads::makeLitmus(name);
        for (const auto &cell :
             ifp::explore::lintCrossCheck(*litmus)) {
            std::ostringstream os;
            for (const auto &c : cell.unexpected)
                os << " unexpected:" << c;
            for (const auto &c : cell.missing)
                os << " missing:" << c;
            EXPECT_TRUE(cell.ok)
                << name << " style "
                << static_cast<int>(cell.style) << ":" << os.str();
        }
    }
}

TEST(Litmus, UnknownLitmusNameDies)
{
    EXPECT_DEATH(ifp::workloads::makeLitmus("no-such-litmus"),
                 "mutual-pair");
}

} // namespace
