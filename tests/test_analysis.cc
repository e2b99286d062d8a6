/**
 * @file
 * Golden-diagnostic tests for the static kernel verifier
 * (src/analysis): one minimal kernel per defect class, a clean kernel
 * asserting zero diagnostics, the static/dynamic cross-check against
 * the window-of-vulnerability race kernel, the suppression mechanics,
 * the KernelBuilder build()-time label validation, and the
 * lintBeforeDispatch hook.
 */

#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "analysis/interference.hh"
#include "analysis/lint.hh"
#include "sim/json.hh"
#include "test_helpers.hh"

namespace ifp {
namespace {

using isa::KernelBuilder;
using isa::Label;
using isa::Opcode;
using mem::AtomicOpcode;

/** Lint @p k against the default Table 1 machine. */
analysis::Report
lint(const isa::Kernel &k)
{
    analysis::LaunchContext launch =
        analysis::makeLaunchContext(k, /*num_cus=*/8,
                                    /*simds_per_cu=*/2,
                                    /*wavefronts_per_simd=*/20,
                                    /*lds_bytes_per_cu=*/64 * 1024);
    return analysis::runLint(k, launch);
}

/** Diagnostics in @p r carrying @p code (suppressed ones included). */
unsigned
countCode(const analysis::Report &r, const std::string &code)
{
    unsigned n = 0;
    for (const analysis::Diagnostic &d : r.diagnostics)
        n += d.code == code ? 1 : 0;
    return n;
}

isa::Kernel
wrap(std::vector<isa::Instr> code, unsigned num_wgs = 4)
{
    isa::Kernel k;
    k.name = "golden";
    k.code = std::move(code);
    k.numWgs = num_wgs;
    k.wiPerWg = 64;
    k.maxWgsPerCu = 8;
    return k;
}

TEST(Lint, CleanKernelHasZeroDiagnostics)
{
    KernelBuilder b;
    b.movi(16, 0x1000);
    b.muli(17, isa::rWgId, 8);
    b.add(16, 16, 17);
    b.ld(18, 16);
    b.addi(18, 18, 1);
    b.st(16, 18);
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b, 4));
    EXPECT_TRUE(r.diagnostics.empty());
    EXPECT_TRUE(r.clean(/*werror=*/true));
}

TEST(Lint, BranchOutOfRangeIsAnError)
{
    isa::Instr branch;
    branch.op = Opcode::Bz;
    branch.src0 = isa::rWgId;
    branch.imm = 99;
    isa::Instr halt;
    halt.op = Opcode::Halt;
    analysis::Report r = lint(wrap({branch, halt}));
    EXPECT_EQ(countCode(r, "branch-range"), 1u);
    EXPECT_FALSE(r.clean(false));
}

TEST(Lint, MissingHaltAndFallOffEnd)
{
    KernelBuilder b;
    b.movi(16, 1);
    b.addi(16, 16, 1);
    analysis::Report r = lint(test::makeTestKernel(b));
    EXPECT_EQ(countCode(r, "no-halt"), 1u);
    EXPECT_EQ(countCode(r, "fall-off-end"), 1u);
    EXPECT_FALSE(r.clean(false));
}

TEST(Lint, UnreachableCodeIsAWarning)
{
    KernelBuilder b;
    Label end = b.label();
    b.br(end);
    b.movi(16, 7);  // dead
    b.bind(end);
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b));
    EXPECT_EQ(countCode(r, "unreachable"), 1u);
    EXPECT_TRUE(r.clean(/*werror=*/false));
    EXPECT_FALSE(r.clean(/*werror=*/true));
}

TEST(Lint, UseBeforeDefIsAWarning)
{
    KernelBuilder b;
    b.addi(16, 17, 1);  // r17 never written, not launch-defined
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b));
    EXPECT_EQ(countCode(r, "use-before-def"), 1u);
}

TEST(Lint, WritingR0IsAWarning)
{
    KernelBuilder b;
    b.movi(isa::rZero, 5);
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b));
    EXPECT_EQ(countCode(r, "writes-r0"), 1u);
}

TEST(Lint, MalformedAtomOperandShape)
{
    KernelBuilder b;
    b.movi(16, 0x1000);
    b.movi(17, 1);
    // cas_compare on a non-CAS atomic is dead and almost surely a bug.
    b.atom(20, AtomicOpcode::Add, 16, 0, 17, /*cas_compare=*/5);
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b));
    EXPECT_EQ(countCode(r, "atom-shape"), 1u);
}

TEST(Lint, NonPositiveValuCyclesIsAnError)
{
    // The builder refuses valu(0); build the raw instruction.
    isa::Instr valu;
    valu.op = Opcode::Valu;
    valu.imm = 0;
    isa::Instr halt;
    halt.op = Opcode::Halt;
    analysis::Report r = lint(wrap({valu, halt}));
    EXPECT_EQ(countCode(r, "valu-cycles"), 1u);
}

TEST(Lint, ConstantZeroDivisorIsAnError)
{
    KernelBuilder b;
    b.movi(16, 42);
    b.divi(17, 16, 0);
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b));
    EXPECT_EQ(countCode(r, "div-zero"), 1u);
}

TEST(Lint, NonPositiveSleepIsAnError)
{
    KernelBuilder b;
    b.movi(16, 0);
    b.sleepR(16);
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b));
    EXPECT_EQ(countCode(r, "sleep-cycles"), 1u);
}

TEST(Lint, DivergentBarrierIsFlagged)
{
    // Wavefront 0 skips the barrier: the WG's wavefronts disagree.
    KernelBuilder b;
    Label skip = b.label();
    b.bz(isa::rWfId, skip);
    b.bar();
    b.bind(skip);
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b, 4, 128));
    EXPECT_EQ(countCode(r, "bar-divergence"), 1u);
}

TEST(Lint, UniformBranchAroundBarrierIsClean)
{
    // Same shape, but the condition is WG-uniform (wgId): every
    // wavefront of a WG takes the same path.
    KernelBuilder b;
    Label skip = b.label();
    b.bz(isa::rWgId, skip);
    b.bar();
    b.bind(skip);
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b, 4, 128));
    EXPECT_EQ(countCode(r, "bar-divergence"), 0u);
}

TEST(Lint, FlagsTheDynamicWovRaceKernel)
{
    // Static/dynamic cross-check: the exact kernel
    // test_window_of_vulnerability.cc proves deadlocks under MonR is
    // flagged by the wov pass without running it.
    isa::Kernel racy = test::wovRaceKernel(0x1000, 0x2000,
                                           /*use_waiting_atomic=*/false,
                                           2000, 1000);
    analysis::Report r = lint(racy);
    EXPECT_EQ(countCode(r, "wov"), 1u);
    EXPECT_FALSE(r.clean(/*werror=*/true));

    // The diagnostic lands on the ArmWait instruction itself.
    for (const analysis::Diagnostic &d : r.diagnostics) {
        if (d.code == "wov") {
            ASSERT_GE(d.pc, 0);
            EXPECT_EQ(racy.code[d.pc].op, Opcode::ArmWait);
        }
    }
}

TEST(Lint, WaitingAtomicVariantHasNoWov)
{
    // Figure 10 bottom: check and wait fused — nothing to flag.
    isa::Kernel safe = test::wovRaceKernel(0x1000, 0x2000,
                                           /*use_waiting_atomic=*/true,
                                           2000, 1000);
    analysis::Report r = lint(safe);
    EXPECT_EQ(countCode(r, "wov"), 0u);
}

TEST(Lint, PlainStoreToWaitedAddressIsLostWakeup)
{
    KernelBuilder b;
    b.movi(16, 0x1000);
    b.movi(17, 1);
    Label consumer = b.label();
    Label finish = b.label();
    b.bz(isa::rWgId, consumer);
    b.st(16, 17);  // plain store: does not notify the monitor
    b.br(finish);
    b.bind(consumer);
    Label poll = b.here();
    Label got = b.label();
    b.atom(20, AtomicOpcode::Load, 16, 0, isa::rZero, 0, true);
    b.cmpEq(21, 20, 17);
    b.bnz(21, got);
    b.armWait(16, 0, 17);
    b.br(poll);
    b.bind(got);
    b.bind(finish);
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b, 2));
    EXPECT_EQ(countCode(r, "lost-wakeup"), 1u);
}

/**
 * A minimal single-level busy-wait barrier: every WG bumps the
 * arrival counter; the last arrival (gate: old == G-1) stores the
 * release flag everyone spins on. Needs all G WGs concurrently
 * resident — the paper's Figure 1 deadlock when G exceeds occupancy.
 */
isa::Kernel
spinBarrierKernel(unsigned num_wgs)
{
    KernelBuilder b;
    b.movi(16, 0x1000);
    b.movi(17, 1);
    b.atom(20, AtomicOpcode::Add, 16, 0, 17);
    b.cmpEqi(21, 20, static_cast<std::int64_t>(num_wgs) - 1);
    Label spin = b.label();
    b.bz(21, spin);
    b.st(16, 17, 8);  // last arrival releases
    b.bind(spin);
    Label poll = b.here();
    b.ld(22, 16, 8);
    b.cmpEq(23, 22, 17);
    b.bz(23, poll);
    b.halt();

    isa::Kernel k;
    k.name = "spin-barrier";
    k.code = b.build();
    k.numWgs = num_wgs;
    k.wiPerWg = 64;
    k.ldsBytes = 1024;
    k.maxWgsPerCu = 8;
    return k;
}

TEST(Lint, OversubscribedSpinBarrierIsInsufficientResidency)
{
    // 128 WGs, but Baseline occupancy sustains 8 CUs x 8 = 64.
    analysis::Report r = lint(spinBarrierKernel(128));
    EXPECT_EQ(countCode(r, "insufficient-residency"), 1u);
    EXPECT_FALSE(r.clean(false));
}

TEST(Lint, ResidentSpinBarrierPassesTheProgressCheck)
{
    // 64 WGs fit exactly: the same kernel is statically safe.
    analysis::Report r = lint(spinBarrierKernel(64));
    EXPECT_EQ(countCode(r, "insufficient-residency"), 0u);
}

TEST(Lint, SpinOnNeverWrittenAddressIsWaitNoNotify)
{
    KernelBuilder b;
    b.movi(16, 0x1000);
    Label poll = b.here();
    b.ld(20, 16);
    b.cmpEqi(21, 20, 1);
    b.bz(21, poll);
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b, 4));
    EXPECT_EQ(countCode(r, "wait-no-notify"), 1u);
}

TEST(Lint, SuppressionDemotesToNoteAndKeepsTheRecord)
{
    isa::Kernel racy = test::wovRaceKernel(0x1000, 0x2000, false,
                                           2000, 1000);
    racy.lintSuppressions.push_back(
        {"wov", "intentional: exercises the race"});
    analysis::Report r = lint(racy);
    ASSERT_EQ(countCode(r, "wov"), 1u);
    for (const analysis::Diagnostic &d : r.diagnostics) {
        if (d.code == "wov") {
            EXPECT_TRUE(d.suppressed);
            EXPECT_EQ(d.severity, analysis::Severity::Note);
            EXPECT_EQ(d.suppressReason,
                      "intentional: exercises the race");
        }
    }
    EXPECT_TRUE(r.clean(/*werror=*/true));
}

TEST(Lint, JsonSerializationIsDeterministic)
{
    std::vector<analysis::Report> reports;
    reports.push_back(lint(test::wovRaceKernel(0x1000, 0x2000, false,
                                               2000, 1000)));
    reports.push_back(lint(spinBarrierKernel(128)));
    std::ostringstream a, b;
    analysis::writeReportsJson(reports, a);
    analysis::writeReportsJson(reports, b);
    EXPECT_FALSE(a.str().empty());
    EXPECT_EQ(a.str(), b.str());
}

TEST(Lint, JsonReportParsesWithSchema)
{
    std::vector<analysis::Report> reports;
    reports.push_back(lint(test::wovRaceKernel(0x1000, 0x2000, false,
                                               2000, 1000)));
    std::ostringstream os;
    analysis::writeReportsJson(reports, os);
    std::optional<sim::json::Value> doc = sim::json::tryParse(os.str());
    ASSERT_TRUE(doc.has_value()) << os.str();
    EXPECT_EQ(doc->find("schema")->string, "ifp-lint-v1");
    ASSERT_EQ(doc->find("kernels")->array.size(), 1u);
}

TEST(Dataflow, WideningSaturatesInsteadOfWrapping)
{
    // A loop counter with no provable bound widens to the +inf
    // sentinel; arithmetic on the widened interval must saturate at
    // the sentinel, never wrap past INT64_MAX into a bogus bounded
    // (negative) range that downstream address checks would trust.
    KernelBuilder b;
    b.movi(16, 0);
    Label loop = b.here();
    b.addi(16, 16, 1);
    b.cmpEqi(21, 16, 1000);
    b.bz(21, loop);
    b.addi(17, 16, 5);
    b.muli(18, 16, 8);
    b.halt();
    isa::Kernel k = test::makeTestKernel(b, 4);

    analysis::Cfg cfg(k.code);
    analysis::LaunchContext launch =
        analysis::makeLaunchContext(k, 8, 2, 20, 64 * 1024);
    analysis::Dataflow df(cfg, launch);

    const std::size_t halt_pc = k.code.size() - 1;
    analysis::Interval counter = df.value(halt_pc, 16);
    EXPECT_FALSE(counter.bounded());
    EXPECT_EQ(counter.hi, std::numeric_limits<std::int64_t>::max());
    EXPECT_GE(counter.lo, 0) << "widening lost the stable lower bound";

    analysis::Interval plus = df.value(halt_pc, 17);
    EXPECT_EQ(plus.hi, std::numeric_limits<std::int64_t>::max())
        << "add on a widened interval wrapped instead of saturating";
    analysis::Interval scaled = df.value(halt_pc, 18);
    EXPECT_EQ(scaled.hi, std::numeric_limits<std::int64_t>::max())
        << "mul on a widened interval wrapped instead of saturating";
}

TEST(Dataflow, PinnedWgMakesWgIdConstant)
{
    KernelBuilder b;
    b.muli(16, isa::rWgId, 8);
    b.halt();
    isa::Kernel k = test::makeTestKernel(b, 8);

    analysis::Cfg cfg(k.code);
    analysis::LaunchContext launch =
        analysis::makeLaunchContext(k, 8, 2, 20, 64 * 1024);
    launch.pinnedWg = 3;
    analysis::Dataflow df(cfg, launch);
    EXPECT_EQ(df.value(0, isa::rWgId),
              analysis::Interval::constant(3));
    EXPECT_EQ(df.value(k.code.size() - 1, 16),
              analysis::Interval::constant(24));
}

/** flags[wg] published, flags[pair partner] read; 4 WGs, 2 pairs. */
isa::Kernel
pairedFlagsKernel()
{
    KernelBuilder b;
    b.movi(16, 0x1000);
    b.muli(17, isa::rWgId, 8);
    b.add(17, 16, 17);          // &flags[wg]
    b.remi(18, isa::rWgId, 2);
    b.muli(18, 18, 2);
    b.addi(19, isa::rWgId, 1);
    b.sub(18, 19, 18);
    b.muli(18, 18, 8);
    b.add(18, 16, 18);          // &flags[wg + 1 - 2*(wg%2)]
    b.movi(20, 1);
    b.st(17, 20);               // publish mine
    b.ld(21, 18);               // read my partner's
    b.halt();
    return test::makeTestKernel(b, 4);
}

TEST(Interference, PinnedFootprintsSeparatePairs)
{
    isa::Kernel k = pairedFlagsKernel();
    analysis::InterferenceAnalysis ia(
        k, analysis::makeLaunchContext(k, 8, 2, 20, 64 * 1024));
    ASSERT_FALSE(ia.capped());
    ASSERT_EQ(ia.numWgs(), 4u);
    EXPECT_TRUE(ia.footprint(0).bounded());
    EXPECT_TRUE(ia.mayConflict(0, 1));   // same pair: shared flags
    EXPECT_TRUE(ia.mayConflict(2, 3));
    EXPECT_FALSE(ia.mayConflict(0, 2));  // cross-pair: disjoint
    EXPECT_FALSE(ia.mayConflict(1, 3));
}

TEST(Interference, CommutativityOracleRespectsFootprints)
{
    isa::Kernel k = pairedFlagsKernel();
    analysis::CommutativityOracle oracle(
        k, analysis::makeLaunchContext(k, 8, 2, 20, 64 * 1024));

    auto action = [](int wg) {
        analysis::SchedAction a;
        a.site = ifp::sim::ChoicePoint::WavefrontIssue;
        a.wg = wg;
        a.pc = 0;
        return a;
    };
    EXPECT_TRUE(oracle.independent(action(0), action(2)));
    EXPECT_FALSE(oracle.independent(action(0), action(1)));
    EXPECT_FALSE(oracle.independent(action(0), action(0)));

    analysis::SchedAction unknown;
    unknown.site = ifp::sim::ChoicePoint::WavefrontIssue;
    EXPECT_FALSE(unknown.known());
    EXPECT_FALSE(oracle.independent(action(0), unknown));

    // Placement-changing sites never commute, whatever the actors.
    analysis::SchedAction host = action(0);
    host.site = ifp::sim::ChoicePoint::HostCu;
    analysis::SchedAction host2 = action(2);
    host2.site = ifp::sim::ChoicePoint::HostCu;
    EXPECT_FALSE(oracle.independent(host, host2));
}

TEST(Interference, WidenedAddressFallsBackToUnbounded)
{
    // The loop counter widens; feeding it into address math makes the
    // footprint unbounded, and unbounded footprints conflict with
    // everything — the POR fallback-to-dependent rule.
    KernelBuilder b;
    b.movi(16, 0);
    Label loop = b.here();
    b.addi(16, 16, 1);
    b.cmpEqi(21, 16, 1000);
    b.bz(21, loop);
    b.muli(17, 16, 8);
    b.movi(18, 0x1000);
    b.add(17, 18, 17);
    b.ld(20, 17);
    b.st(17, 20);
    b.halt();
    isa::Kernel k = test::makeTestKernel(b, 4);
    analysis::InterferenceAnalysis ia(
        k, analysis::makeLaunchContext(k, 8, 2, 20, 64 * 1024));
    ASSERT_FALSE(ia.capped());
    EXPECT_TRUE(ia.footprint(0).reads.unbounded);
    EXPECT_TRUE(ia.footprint(0).writes.unbounded);
    EXPECT_FALSE(ia.footprint(0).bounded());
    EXPECT_TRUE(ia.mayConflict(0, 1));
}

TEST(Interference, CircularWaitPairIsFlagged)
{
    // Each WG spins on the other's flag before publishing its own:
    // both notifies are guarded by stuck waits, so the wait-for
    // fixpoint keeps both wait sites and the lint pass reports the
    // static circular wait.
    KernelBuilder b;
    b.movi(16, 0x1000);
    b.muli(17, isa::rWgId, 8);
    b.add(17, 16, 17);          // &flags[wg]
    b.movi(18, 1);
    b.sub(18, 18, isa::rWgId);
    b.muli(18, 18, 8);
    b.add(18, 16, 18);          // &flags[1 - wg]
    b.movi(20, 1);
    Label poll = b.here();
    b.ld(21, 18);
    b.cmpEq(22, 21, 20);
    b.bz(22, poll);             // wait for the partner first...
    b.st(17, 20);               // ...then publish
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b, 2));
    EXPECT_EQ(countCode(r, "static-circular-wait"), 1u);
}

TEST(Interference, WaitForZeroIsNeverACircularWaitCandidate)
{
    // Memory starts zeroed, so a wait whose expected value may be 0
    // (TAS "lock free" polls) is satisfiable at launch and must not
    // be reported even though nobody ever writes the address.
    KernelBuilder b;
    b.movi(16, 0x1000);
    b.muli(17, isa::rWgId, 8);
    b.add(17, 16, 17);
    Label poll = b.here();
    b.ld(21, 17);
    b.cmpEqi(22, 21, 0);
    b.bz(22, poll);             // spin until flags[wg] == 0
    b.halt();
    analysis::Report r = lint(test::makeTestKernel(b, 2));
    EXPECT_EQ(countCode(r, "static-circular-wait"), 0u);
}

TEST(Interference, SummaryJsonIsDeterministic)
{
    isa::Kernel k = pairedFlagsKernel();
    analysis::LaunchContext launch =
        analysis::makeLaunchContext(k, 8, 2, 20, 64 * 1024);
    std::vector<analysis::InterferenceSummary> summaries;
    summaries.push_back(analysis::summarizeInterference(k, launch));
    std::ostringstream a, c;
    analysis::writeInterferenceSummariesJson(summaries, a);
    analysis::writeInterferenceSummariesJson(summaries, c);
    EXPECT_FALSE(a.str().empty());
    EXPECT_EQ(a.str(), c.str());
}

TEST(Interference, SummaryJsonParsesWithSchema)
{
    isa::Kernel k = pairedFlagsKernel();
    analysis::LaunchContext launch =
        analysis::makeLaunchContext(k, 8, 2, 20, 64 * 1024);
    std::ostringstream os;
    analysis::writeInterferenceSummariesJson(
        {analysis::summarizeInterference(k, launch)}, os);
    std::optional<sim::json::Value> doc = sim::json::tryParse(os.str());
    ASSERT_TRUE(doc.has_value()) << os.str();
    EXPECT_EQ(doc->find("schema")->string, "ifp-interference-v1");
    ASSERT_EQ(doc->find("kernels")->array.size(), 1u);
}

TEST(BuilderValidation, UnboundLabelFailsBuildWithClearError)
{
    EXPECT_EXIT(
        {
            KernelBuilder b;
            Label l = b.label();
            b.br(l);
            b.halt();
            b.build();
        },
        ::testing::ExitedWithCode(1), "never bound");
}

TEST(BuilderValidation, LabelBoundPastTheEndFailsBuild)
{
    EXPECT_EXIT(
        {
            KernelBuilder b;
            Label l = b.label();
            b.br(l);
            b.bind(l);  // bound, but no instruction follows
            b.build();
        },
        ::testing::ExitedWithCode(1), "past the last instruction");
}

TEST(DispatchLint, RejectsMalformedKernelBeforeLaunch)
{
    core::RunConfig cfg;
    cfg.dispatch.lintBeforeDispatch = true;
    core::GpuSystem system(cfg);
    KernelBuilder b;
    b.movi(16, 1);  // no halt: falls off the end (a structural error)
    EXPECT_THROW(system.run(test::makeTestKernel(b)),
                 std::invalid_argument);
}

TEST(DispatchLint, CleanKernelStillRuns)
{
    core::RunConfig cfg;
    cfg.dispatch.lintBeforeDispatch = true;
    cfg.dispatch.lintWerror = true;
    core::GpuSystem system(cfg);
    mem::Addr buf = system.allocate(64);
    KernelBuilder b;
    b.movi(16, static_cast<std::int64_t>(buf));
    b.movi(17, 7);
    b.st(16, 17);
    b.halt();
    core::RunResult r = system.run(test::makeTestKernel(b));
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(system.memory().read(buf, 8), 7);
}

} // anonymous namespace
} // namespace ifp
