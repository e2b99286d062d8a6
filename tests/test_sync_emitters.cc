/**
 * @file
 * Codegen verification for the style-parameterized sync emitters:
 * each policy's style must emit exactly the instruction classes the
 * paper's corresponding machine supports (no waiting atomics on the
 * Baseline, no s_sleep outside the Sleep policy, ...).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "analysis/lint.hh"
#include "test_helpers.hh"
#include "workloads/sync_emitters.hh"

namespace ifp::workloads {
namespace {

using core::SyncStyle;
using isa::KernelBuilder;
using isa::Opcode;

struct OpcodeCensus
{
    unsigned atomics = 0;
    unsigned waitingAtomics = 0;
    unsigned armWaits = 0;
    unsigned sleeps = 0;
    unsigned branches = 0;
};

OpcodeCensus
census(const std::vector<isa::Instr> &code)
{
    OpcodeCensus c;
    for (const isa::Instr &in : code) {
        switch (in.op) {
          case Opcode::Atom: ++c.atomics; break;
          case Opcode::AtomWait: ++c.waitingAtomics; break;
          case Opcode::ArmWait: ++c.armWaits; break;
          case Opcode::SleepR: ++c.sleeps; break;
          case Opcode::Bz:
          case Opcode::Bnz:
          case Opcode::Br: ++c.branches; break;
          default: break;
        }
    }
    return c;
}

std::vector<isa::Instr>
emitAcquireRelease(SyncStyle style, bool software_backoff = false)
{
    KernelBuilder b;
    StyleParams sp;
    sp.style = style;
    sp.softwareBackoff = software_backoff;
    emitSyncProlog(b, sp);
    emitTasAcquire(b, sp, rSyncAddr);
    emitTasRelease(b, rSyncAddr);
    b.halt();
    return b.build();
}

std::vector<isa::Instr>
emitWait(SyncStyle style)
{
    KernelBuilder b;
    StyleParams sp;
    sp.style = style;
    emitSyncProlog(b, sp);
    emitWaitEq(b, sp, rSyncAddr, 0, rDataVal);
    b.halt();
    return b.build();
}

TEST(SyncEmitters, BusyStyleUsesOnlyRegularAtomics)
{
    for (auto code : {emitAcquireRelease(SyncStyle::Busy),
                      emitWait(SyncStyle::Busy)}) {
        OpcodeCensus c = census(code);
        EXPECT_GT(c.atomics, 0u);
        EXPECT_EQ(c.waitingAtomics, 0u);
        EXPECT_EQ(c.armWaits, 0u);
        EXPECT_EQ(c.sleeps, 0u);
        EXPECT_GT(c.branches, 0u);  // the spin loop
    }
}

TEST(SyncEmitters, SleepStyleAddsBackoff)
{
    OpcodeCensus c = census(emitAcquireRelease(SyncStyle::SleepBackoff));
    EXPECT_GT(c.atomics, 0u);
    EXPECT_EQ(c.waitingAtomics, 0u);
    EXPECT_EQ(c.sleeps, 1u);
    c = census(emitWait(SyncStyle::SleepBackoff));
    EXPECT_EQ(c.sleeps, 1u);
}

TEST(SyncEmitters, SoftwareBackoffAvoidsSleepInstructions)
{
    // SPMBO on the Baseline machine: delay loops, no s_sleep.
    OpcodeCensus c =
        census(emitAcquireRelease(SyncStyle::Busy, true));
    EXPECT_EQ(c.sleeps, 0u);
    EXPECT_GT(c.branches, 1u);  // retry loop + delay loop
}

TEST(SyncEmitters, WaitAtomicStyleUsesWaitingAtomics)
{
    for (auto code : {emitAcquireRelease(SyncStyle::WaitAtomic),
                      emitWait(SyncStyle::WaitAtomic)}) {
        OpcodeCensus c = census(code);
        EXPECT_GT(c.waitingAtomics, 0u);
        EXPECT_EQ(c.armWaits, 0u);
        EXPECT_EQ(c.sleeps, 0u);
    }
}

TEST(SyncEmitters, WaitInstrStyleArmsAfterChecking)
{
    // Figure 10 (top): a regular check followed by a separate arm —
    // the window-of-vulnerability pattern.
    auto code = emitWait(SyncStyle::WaitInstr);
    OpcodeCensus c = census(code);
    EXPECT_GT(c.atomics, 0u);
    EXPECT_EQ(c.armWaits, 1u);
    EXPECT_EQ(c.waitingAtomics, 0u);
    // The arm must come after the checking atomic in program order.
    int check_pc = -1, arm_pc = -1;
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
        if (code[pc].op == Opcode::Atom && check_pc < 0)
            check_pc = static_cast<int>(pc);
        if (code[pc].op == Opcode::ArmWait)
            arm_pc = static_cast<int>(pc);
    }
    EXPECT_GE(check_pc, 0);
    EXPECT_GT(arm_pc, check_pc);
}

TEST(SyncEmitters, ReleaseCarriesReleaseSemantics)
{
    KernelBuilder b;
    StyleParams sp;
    sp.style = SyncStyle::Busy;
    emitTasRelease(b, rSyncAddr);
    auto code = b.build();
    ASSERT_EQ(code.size(), 1u);
    EXPECT_TRUE(code[0].release);
    EXPECT_FALSE(code[0].acquire);
}

TEST(SyncEmitters, AcquireCarriesAcquireSemantics)
{
    for (SyncStyle style :
         {SyncStyle::Busy, SyncStyle::SleepBackoff,
          SyncStyle::WaitAtomic, SyncStyle::WaitInstr}) {
        auto code = emitAcquireRelease(style);
        bool saw_acquire = false;
        for (const isa::Instr &in : code) {
            if ((in.op == Opcode::Atom ||
                 in.op == Opcode::AtomWait) &&
                in.acquire) {
                saw_acquire = true;
            }
        }
        EXPECT_TRUE(saw_acquire)
            << "style " << static_cast<int>(style);
    }
}

/**
 * A linteable miniature kernel around one value-predicate wait: WG 0
 * waits, WGs 1..3 publish (a release exchange for the slot-sequence
 * wait, release increments for the ceiling counter), so the static
 * progress passes can discharge the wait.
 */
isa::Kernel
valueWaitKernel(SyncStyle style, bool counter)
{
    using mem::AtomicOpcode;
    KernelBuilder b;
    StyleParams sp;
    sp.style = style;
    emitSyncProlog(b, sp);
    b.movi(rSyncAddr, 0x1000);
    b.movi(rDataVal, counter ? 3 : 1);
    isa::Label wait = b.label();
    isa::Label end = b.label();
    b.bz(isa::rWgId, wait);
    b.atom(rAtomResult, counter ? AtomicOpcode::Add : AtomicOpcode::Exch,
           rSyncAddr, 0, rOne, 0, /*acquire=*/false, /*release=*/true);
    b.br(end);
    b.bind(wait);
    if (counter)
        emitWaitCounterReach(b, sp, rSyncAddr, 0, rDataVal);
    else
        emitWaitSeqEq(b, sp, rSyncAddr, 0, rDataVal);
    b.bind(end);
    b.halt();
    isa::Kernel k = ifp::test::makeTestKernel(b, 4);
    k.lintSuppressions = b.suppressions();
    return k;
}

analysis::Report
lintValueWait(SyncStyle style, bool counter)
{
    isa::Kernel k = valueWaitKernel(style, counter);
    analysis::LaunchContext launch =
        analysis::makeLaunchContext(k, /*num_cus=*/8);
    return analysis::runLint(k, launch);
}

TEST(SyncEmitters, ValuePredicateWaitsFollowStyleCensus)
{
    for (bool counter : {false, true}) {
        OpcodeCensus busy =
            census(valueWaitKernel(SyncStyle::Busy, counter).code);
        EXPECT_GT(busy.atomics, 0u);
        EXPECT_EQ(busy.waitingAtomics, 0u);
        EXPECT_EQ(busy.armWaits, 0u);
        EXPECT_EQ(busy.sleeps, 0u);

        OpcodeCensus sleep = census(
            valueWaitKernel(SyncStyle::SleepBackoff, counter).code);
        EXPECT_EQ(sleep.sleeps, 1u);
        EXPECT_EQ(sleep.waitingAtomics, 0u);

        OpcodeCensus wa = census(
            valueWaitKernel(SyncStyle::WaitAtomic, counter).code);
        EXPECT_GT(wa.waitingAtomics, 0u);
        EXPECT_EQ(wa.armWaits, 0u);
        EXPECT_EQ(wa.sleeps, 0u);

        OpcodeCensus wi = census(
            valueWaitKernel(SyncStyle::WaitInstr, counter).code);
        EXPECT_EQ(wi.armWaits, 1u);
        EXPECT_EQ(wi.waitingAtomics, 0u);
    }
}

TEST(SyncEmitters, WaitAtomicValueWaitsHaveNoWindow)
{
    // Figure 10 (bottom): the WaitAtomic form of both value-predicate
    // waits fuses the check into the waiting access itself — there is
    // no regular atomic on the waiter's path whose result a separate
    // arm could race with (the single Atom is the publisher's release).
    for (bool counter : {false, true}) {
        OpcodeCensus c = census(
            valueWaitKernel(SyncStyle::WaitAtomic, counter).code);
        EXPECT_EQ(c.atomics, 1u);
        EXPECT_GT(c.waitingAtomics, 0u);
        EXPECT_EQ(c.armWaits, 0u);
    }
}

TEST(SyncEmitters, ValuePredicateWaitsLintCleanAcrossStyles)
{
    // Static cross-check: every style of both waits passes the
    // verifier under --Werror. The WaitInstr forms carry their
    // annotated check-then-arm ("wov") suppression — the finding must
    // still be present, demoted, with the annotation attached.
    for (bool counter : {false, true}) {
        for (SyncStyle style :
             {SyncStyle::Busy, SyncStyle::SleepBackoff,
              SyncStyle::WaitAtomic, SyncStyle::WaitInstr}) {
            analysis::Report r = lintValueWait(style, counter);
            std::ostringstream dump;
            analysis::printReport(r, dump);
            EXPECT_TRUE(r.clean(/*werror=*/true))
                << "counter=" << counter << " style "
                << static_cast<int>(style) << "\n" << dump.str();
        }
        analysis::Report wi = lintValueWait(SyncStyle::WaitInstr,
                                            counter);
        bool saw_suppressed_wov = false;
        for (const analysis::Diagnostic &d : wi.diagnostics) {
            if (d.code == "wov") {
                EXPECT_TRUE(d.suppressed);
                EXPECT_FALSE(d.suppressReason.empty());
                saw_suppressed_wov = true;
            }
        }
        EXPECT_TRUE(saw_suppressed_wov) << "counter=" << counter;

        analysis::Report wa = lintValueWait(SyncStyle::WaitAtomic,
                                            counter);
        for (const analysis::Diagnostic &d : wa.diagnostics)
            EXPECT_NE(d.code, "wov");  // genuinely window-free
    }
}

TEST(SyncEmitters, AllWorkloadsEmitPolicyConsistentCode)
{
    // Cross-check at the workload level: building any benchmark in a
    // given style yields code whose opcode census matches the style.
    core::GpuSystem system(ifp::test::testRunConfig());
    workloads::WorkloadParams params = ifp::test::smallParams();
    for (const auto &w : makeFullSuite()) {
        params.style = core::SyncStyle::WaitAtomic;
        OpcodeCensus c = census(w->build(system, params).code);
        EXPECT_GT(c.waitingAtomics, 0u) << w->abbrev();
        EXPECT_EQ(c.armWaits, 0u) << w->abbrev();

        params.style = core::SyncStyle::Busy;
        c = census(w->build(system, params).code);
        EXPECT_EQ(c.waitingAtomics, 0u) << w->abbrev();
        EXPECT_EQ(c.sleeps, 0u) << w->abbrev();
    }
}

} // anonymous namespace
} // namespace ifp::workloads
