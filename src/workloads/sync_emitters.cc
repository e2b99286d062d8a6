#include "workloads/sync_emitters.hh"

#include <utility>

#include "sim/logging.hh"

namespace ifp::workloads {

using core::SyncStyle;
using isa::KernelBuilder;
using isa::Label;
using isa::Reg;
using mem::AtomicOpcode;

namespace {

/**
 * Backoff after the first failed attempt, in cycles; each later
 * failure doubles it, up to StyleParams::backoffMax.
 */
constexpr std::int64_t backoffMinCycles = 64;

} // anonymous namespace

void
emitSyncProlog(KernelBuilder &b, const StyleParams &sp)
{
    b.movi(rOne, 1);
    if (sp.style == SyncStyle::SleepBackoff || sp.softwareBackoff)
        b.movi(rBackoffMax, sp.backoffMax);
}

namespace {

/**
 * Emit the backoff step shared by the SleepBackoff style and the
 * software-backoff (SPMBO) variant: pause for rBackoff cycles, then
 * double rBackoff up to rBackoffMax.
 */
void
emitBackoffStep(KernelBuilder &b, const StyleParams &sp)
{
    if (sp.softwareBackoff) {
        // Software delay loop: no s_sleep on the Baseline machine.
        // Each iteration is ~2 issue cycles; rTmp1 counts down.
        b.shri(rTmp1, rBackoff, 1);
        b.addi(rTmp1, rTmp1, 1);
        Label delay = b.here();
        b.subi(rTmp1, rTmp1, 1);
        b.bnz(rTmp1, delay);
    } else {
        b.sleepR(rBackoff);
    }
    // backoff = min(2 * backoff, backoffMax)
    b.shli(rBackoff, rBackoff, 1);
    Label capped = b.label();
    b.cmpLe(rTmp1, rBackoff, rBackoffMax);
    b.bnz(rTmp1, capped);
    b.mov(rBackoff, rBackoffMax);
    b.bind(capped);
}

} // anonymous namespace

void
emitTasAcquire(KernelBuilder &b, const StyleParams &sp, Reg addr_reg,
               std::int64_t offset)
{
    switch (sp.style) {
      case SyncStyle::Busy: {
        if (sp.softwareBackoff)
            b.movi(rBackoff, backoffMinCycles);
        Label retry = b.here();
        Label done = b.label();
        b.atom(rAtomResult, AtomicOpcode::Exch, addr_reg, offset, rOne,
               0, /*acquire=*/true);
        if (sp.softwareBackoff) {
            b.bz(rAtomResult, done);
            emitBackoffStep(b, sp);
            b.br(retry);
        } else {
            b.bnz(rAtomResult, retry);
        }
        b.bind(done);
        return;
      }
      case SyncStyle::SleepBackoff: {
        b.movi(rBackoff, backoffMinCycles);
        Label retry = b.here();
        Label done = b.label();
        b.atom(rAtomResult, AtomicOpcode::Exch, addr_reg, offset, rOne,
               0, /*acquire=*/true);
        b.bz(rAtomResult, done);
        emitBackoffStep(b, sp);
        b.br(retry);
        b.bind(done);
        return;
      }
      case SyncStyle::WaitAtomic: {
        // The waiting exchange re-executes in hardware until it
        // observes the expected free value (Mesa semantics); the
        // branch guards against spurious resumes.
        Label retry = b.here();
        b.atomWait(rAtomResult, AtomicOpcode::Exch, addr_reg, offset,
                   rOne, isa::rZero, /*acquire=*/true);
        b.bnz(rAtomResult, retry);
        return;
      }
      case SyncStyle::WaitInstr: {
        // Figure 10 (top): the wait arms the monitor *after* the
        // failed attempt — the window-of-vulnerability pattern.
        // ifplint flags it (test_window_of_vulnerability.cc provokes
        // it dynamically); that is the point of the MonR variant.
        b.suppressLint("wov", "MonR arms the monitor after the failed "
                              "attempt by design (Figure 10 top); the "
                              "runtime re-check tolerates the race");
        Label retry = b.here();
        Label done = b.label();
        b.atom(rAtomResult, AtomicOpcode::Exch, addr_reg, offset, rOne,
               0, /*acquire=*/true);
        b.bz(rAtomResult, done);
        b.armWait(addr_reg, offset, isa::rZero);
        b.br(retry);
        b.bind(done);
        return;
      }
    }
    ifp_panic("unknown sync style");
}

void
emitTasRelease(KernelBuilder &b, Reg addr_reg, std::int64_t offset)
{
    b.atom(rAtomResult, AtomicOpcode::Exch, addr_reg, offset,
           isa::rZero, 0, /*acquire=*/false, /*release=*/true);
}

void
emitWaitEq(KernelBuilder &b, const StyleParams &sp, Reg addr_reg,
           std::int64_t offset, Reg expected_reg)
{
    switch (sp.style) {
      case SyncStyle::Busy: {
        if (sp.softwareBackoff)
            b.movi(rBackoff, backoffMinCycles);
        Label poll = b.here();
        Label done = b.label();
        b.atom(rAtomResult, AtomicOpcode::Load, addr_reg, offset,
               isa::rZero, 0, /*acquire=*/true);
        b.cmpEq(rTmp0, rAtomResult, expected_reg);
        if (sp.softwareBackoff) {
            b.bnz(rTmp0, done);
            emitBackoffStep(b, sp);
            b.br(poll);
        } else {
            b.bz(rTmp0, poll);
        }
        b.bind(done);
        return;
      }
      case SyncStyle::SleepBackoff: {
        b.movi(rBackoff, backoffMinCycles);
        Label poll = b.here();
        Label done = b.label();
        b.atom(rAtomResult, AtomicOpcode::Load, addr_reg, offset,
               isa::rZero, 0, /*acquire=*/true);
        b.cmpEq(rTmp0, rAtomResult, expected_reg);
        b.bnz(rTmp0, done);
        emitBackoffStep(b, sp);
        b.br(poll);
        b.bind(done);
        return;
      }
      case SyncStyle::WaitAtomic: {
        // compare-and-wait: the paper's new load-class waiting atomic
        // (Figure 10, bottom).
        Label retry = b.here();
        b.atomWait(rAtomResult, AtomicOpcode::Load, addr_reg, offset,
                   isa::rZero, expected_reg, /*acquire=*/true);
        b.cmpEq(rTmp0, rAtomResult, expected_reg);
        b.bz(rTmp0, retry);
        return;
      }
      case SyncStyle::WaitInstr: {
        // Same split check/arm window as emitTasAcquire above.
        b.suppressLint("wov", "MonR arms the monitor after the failed "
                              "attempt by design (Figure 10 top); the "
                              "runtime re-check tolerates the race");
        Label poll = b.here();
        Label done = b.label();
        b.atom(rAtomResult, AtomicOpcode::Load, addr_reg, offset,
               isa::rZero, 0, /*acquire=*/true);
        b.cmpEq(rTmp0, rAtomResult, expected_reg);
        b.bnz(rTmp0, done);
        b.armWait(addr_reg, offset, expected_reg);
        b.br(poll);
        b.bind(done);
        return;
      }
    }
    ifp_panic("unknown sync style");
}

void
emitWaitSeqEq(KernelBuilder &b, const StyleParams &sp, Reg addr_reg,
              std::int64_t offset, Reg expected_reg)
{
    if (sp.style == SyncStyle::WaitInstr) {
        // The check-then-arm window on a slot sequence word: a peer
        // can advance the slot between the failed check and the arm.
        // Benign here — the expected sequence value is persistent
        // (only the waiting party advances it past the expectation),
        // so the post-resume re-check settles it.
        b.suppressLint("wov",
                       "slot-sequence check-then-arm: the expected "
                       "sequence value persists until this waiter "
                       "consumes it, so the re-check after resume "
                       "closes the window");
    }
    // The slot protocol's waits are plain equality waits; only the
    // ownership contract (header comment) differs from emitWaitEq.
    emitWaitEq(b, sp, addr_reg, offset, expected_reg);
}

void
emitWaitCounterReach(KernelBuilder &b, const StyleParams &sp,
                     Reg addr_reg, std::int64_t offset, Reg target_reg)
{
    switch (sp.style) {
      case SyncStyle::Busy: {
        if (sp.softwareBackoff)
            b.movi(rBackoff, backoffMinCycles);
        Label poll = b.here();
        Label done = b.label();
        b.atom(rAtomResult, AtomicOpcode::Load, addr_reg, offset,
               isa::rZero, 0, /*acquire=*/true);
        b.cmpLe(rTmp0, target_reg, rAtomResult);
        if (sp.softwareBackoff) {
            b.bnz(rTmp0, done);
            emitBackoffStep(b, sp);
            b.br(poll);
        } else {
            b.bz(rTmp0, poll);
        }
        b.bind(done);
        return;
      }
      case SyncStyle::SleepBackoff: {
        b.movi(rBackoff, backoffMinCycles);
        Label poll = b.here();
        Label done = b.label();
        b.atom(rAtomResult, AtomicOpcode::Load, addr_reg, offset,
               isa::rZero, 0, /*acquire=*/true);
        b.cmpLe(rTmp0, target_reg, rAtomResult);
        b.bnz(rTmp0, done);
        emitBackoffStep(b, sp);
        b.br(poll);
        b.bind(done);
        return;
      }
      case SyncStyle::WaitAtomic: {
        // Equality wait on the terminal value; safe because the
        // counter never exceeds the target (ceiling contract). The
        // >= guard tolerates spurious resumes.
        Label retry = b.here();
        b.atomWait(rAtomResult, AtomicOpcode::Load, addr_reg, offset,
                   isa::rZero, target_reg, /*acquire=*/true);
        b.cmpLe(rTmp0, target_reg, rAtomResult);
        b.bz(rTmp0, retry);
        return;
      }
      case SyncStyle::WaitInstr: {
        // Check-then-arm on the terminal counter value: an increment
        // between check and arm is benign because the counter parks
        // at the target, so the armed equality still fires (or the
        // rescue re-check observes >= target).
        b.suppressLint("wov",
                       "ceiling-counter check-then-arm: the counter "
                       "parks at the armed target value, so a missed "
                       "increment still leaves the condition true for "
                       "the re-check");
        Label poll = b.here();
        Label done = b.label();
        b.atom(rAtomResult, AtomicOpcode::Load, addr_reg, offset,
               isa::rZero, 0, /*acquire=*/true);
        b.cmpLe(rTmp0, target_reg, rAtomResult);
        b.bnz(rTmp0, done);
        b.armWait(addr_reg, offset, target_reg);
        b.br(poll);
        b.bind(done);
        return;
      }
    }
    ifp_panic("unknown sync style");
}

isa::Kernel
finishKernel(KernelBuilder &b, std::string name, unsigned num_wgs,
             unsigned wi_per_wg, unsigned max_wgs_per_cu, unsigned vgprs,
             unsigned lds_bytes)
{
    isa::Kernel k;
    k.name = std::move(name);
    k.code = b.build();
    k.lintSuppressions = b.suppressions();
    k.wiPerWg = wi_per_wg;
    k.numWgs = num_wgs;
    k.vgprsPerWi = vgprs;
    k.ldsBytes = lds_bytes;
    k.maxWgsPerCu = max_wgs_per_cu;
    return k;
}

} // namespace ifp::workloads
