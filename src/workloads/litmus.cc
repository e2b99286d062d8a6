#include "workloads/litmus.hh"

#include <sstream>

#include "sim/logging.hh"
#include "workloads/sync_emitters.hh"

namespace ifp::workloads {

using core::Policy;
using core::SyncStyle;
using core::Verdict;
using isa::KernelBuilder;
using isa::Label;
using mem::AtomicOpcode;

namespace {

/// @name Litmus register conventions (beyond the emitters')
/// @{
constexpr isa::Reg rConst = 27;
constexpr isa::Reg rMyFlag = 28;
constexpr isa::Reg rOtherFlag = 29;
constexpr isa::Reg rScratch = 30;
/// @}

constexpr std::int64_t kPayload = 7;

/** &flags[wg] and &flags[1 - wg] into rMyFlag / rOtherFlag. */
void
emitPairFlagAddrs(KernelBuilder &b, mem::Addr sync_base)
{
    b.movi(rSyncAddr, static_cast<std::int64_t>(sync_base));
    b.muli(rScratch, isa::rWgId, 8);
    b.add(rMyFlag, rSyncAddr, rScratch);
    b.movi(rScratch, 1);
    b.sub(rScratch, rScratch, isa::rWgId);
    b.muli(rScratch, rScratch, 8);
    b.add(rOtherFlag, rSyncAddr, rScratch);
}

/** done[wg] = r[value_reg]; the completion marker validate() checks. */
void
emitDone(KernelBuilder &b, mem::Addr done_base, isa::Reg value_reg)
{
    b.movi(rDataAddr, static_cast<std::int64_t>(done_base));
    b.muli(rScratch, isa::rWgId, 8);
    b.add(rDataAddr, rDataAddr, rScratch);
    b.st(rDataAddr, value_reg);
}

} // anonymous namespace

LitmusWorkload::LitmusWorkload(LitmusSpec spec) : litmus(std::move(spec))
{}

std::string
LitmusWorkload::name() const
{
    return "Litmus/" + litmus.name;
}

std::string
LitmusWorkload::abbrev() const
{
    return litmus.name;
}

Table2Row
LitmusWorkload::characteristics() const
{
    Table2Row row;
    row.abbrev = litmus.name;
    row.description = litmus.description;
    row.granularity = "WG";
    row.numSyncVars = "1-2";
    row.condsPerVar = "1";
    row.waitersPerCond = "1-" + std::to_string(litmus.numWgs - 1);
    row.updatesUntilMet = "1";
    return row;
}

isa::Kernel
LitmusWorkload::build(core::GpuSystem &system,
                      const WorkloadParams &params) const
{
    // Geometry comes from the spec, not the params: a litmus IS its
    // shape. Only the codegen style (and backoff knobs) vary.
    syncBase = system.allocate(64);
    doneBase = system.allocate(litmus.numWgs * 8);

    StyleParams sp;
    sp.style = params.style;
    sp.backoffMax = params.backoffMaxCycles;

    KernelBuilder b;
    emitSyncProlog(b, sp);

    switch (litmus.shape) {
      case LitmusShape::MutualPair: {
        emitPairFlagAddrs(b, syncBase);
        // Publish my flag (release), then wait for the other's.
        b.atom(rAtomResult, AtomicOpcode::Exch, rMyFlag, 0, rOne, 0,
               /*acquire=*/false, /*release=*/true);
        emitWaitEq(b, sp, rOtherFlag, 0, rOne);
        emitDone(b, doneBase, rOne);
        break;
      }
      case LitmusShape::OccBarrier: {
        // Arrive at the counter, then wait for everyone.
        b.movi(rSyncAddr, static_cast<std::int64_t>(syncBase));
        b.atom(rAtomResult, AtomicOpcode::Add, rSyncAddr, 0, rOne, 0,
               /*acquire=*/false, /*release=*/true);
        b.movi(rConst, litmus.numWgs);
        emitWaitEq(b, sp, rSyncAddr, 0, rConst);
        emitDone(b, doneBase, rOne);
        break;
      }
      case LitmusShape::ProdCons: {
        // flag at syncBase+0, payload at syncBase+8.
        b.movi(rSyncAddr, static_cast<std::int64_t>(syncBase));
        Label consumer = b.label();
        Label tail = b.label();
        b.bnz(isa::rWgId, consumer);
        // WG0, producer: payload first, then release-publish the
        // flag with an atomic the monitors can observe.
        b.valu(200);
        b.movi(rDataVal, kPayload);
        b.st(rSyncAddr, rDataVal, 8);
        b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0, rOne, 0,
               /*acquire=*/false, /*release=*/true);
        b.movi(rDataVal, 1);
        b.br(tail);
        // WG1, consumer: wait for the flag, read the payload.
        b.bind(consumer);
        emitWaitEq(b, sp, rSyncAddr, 0, rOne);
        b.ld(rDataVal, rSyncAddr, 8);
        b.bind(tail);
        emitDone(b, doneBase, rDataVal);
        break;
      }
      case LitmusShape::SpinNotify: {
        b.movi(rSyncAddr, static_cast<std::int64_t>(syncBase));
        Label waiter = b.label();
        Label tail = b.label();
        b.bnz(isa::rWgId, waiter);
        // WG0, notifier: compute, then a PLAIN store to the waited
        // flag — the static lost-wakeup hazard this litmus exists
        // to pin down.
        b.valu(500);
        b.st(rSyncAddr, rOne);
        b.br(tail);
        // WG1: spin/wait until notified.
        b.bind(waiter);
        emitWaitEq(b, sp, rSyncAddr, 0, rOne);
        b.bind(tail);
        emitDone(b, doneBase, rOne);
        break;
      }
      case LitmusShape::PairGrid: {
        // rMyFlag = &flags[wg]; partner of WG w is w + 1 - 2*(w % 2),
        // i.e. the other member of w's pair. The rem form keeps the
        // unpinned interval of the partner index within the flag
        // array (no aliasing with the done array for the lint
        // passes); pinned, it is exact and each pair's footprint is
        // two concrete addresses disjoint from every other pair's.
        b.movi(rSyncAddr, static_cast<std::int64_t>(syncBase));
        b.muli(rScratch, isa::rWgId, 8);
        b.add(rMyFlag, rSyncAddr, rScratch);
        b.remi(rScratch, isa::rWgId, 2);
        b.muli(rScratch, rScratch, 2);
        b.addi(rConst, isa::rWgId, 1);
        b.sub(rScratch, rConst, rScratch);
        b.muli(rScratch, rScratch, 8);
        b.add(rOtherFlag, rSyncAddr, rScratch);
        // Publish my flag (release), then wait for my partner's.
        b.atom(rAtomResult, AtomicOpcode::Exch, rMyFlag, 0, rOne, 0,
               /*acquire=*/false, /*release=*/true);
        emitWaitEq(b, sp, rOtherFlag, 0, rOne);
        emitDone(b, doneBase, rOne);
        break;
      }
      case LitmusShape::Ring: {
        // rMyFlag = &flags[wg], rOtherFlag = &flags[(wg + N - 1) % N].
        b.movi(rSyncAddr, static_cast<std::int64_t>(syncBase));
        b.muli(rScratch, isa::rWgId, 8);
        b.add(rMyFlag, rSyncAddr, rScratch);
        b.addi(rScratch, isa::rWgId, litmus.numWgs - 1);
        b.remi(rScratch, rScratch, litmus.numWgs);
        b.muli(rScratch, rScratch, 8);
        b.add(rOtherFlag, rSyncAddr, rScratch);
        // "Started" marker, as in CircularWait: one mutation per WG
        // pushes stall classification past the first deadlock window.
        b.movi(rScratch, 2);
        emitDone(b, doneBase, rScratch);
        // Wait for the predecessor FIRST, publish after: an N-cycle.
        emitWaitEq(b, sp, rOtherFlag, 0, rOne);
        b.atom(rAtomResult, AtomicOpcode::Exch, rMyFlag, 0, rOne, 0,
               /*acquire=*/false, /*release=*/true);
        emitDone(b, doneBase, rOne);
        break;
      }
      case LitmusShape::CircularWait: {
        emitPairFlagAddrs(b, syncBase);
        // Observable "started" marker (done[wg] = 2). Without at
        // least one mutation the very first deadlock window already
        // sees a frozen progress signature, and the liveness oracle
        // conservatively reports Deadlock before it has two retry
        // samples to tell a livelock apart (core/liveness.cc). The
        // marker pushes stall detection past the first window so each
        // policy's steady-state failure mode is what gets classified.
        b.movi(rScratch, 2);
        emitDone(b, doneBase, rScratch);
        // Wait FIRST, publish after: the cycle no schedule breaks.
        emitWaitEq(b, sp, rOtherFlag, 0, rOne);
        b.atom(rAtomResult, AtomicOpcode::Exch, rMyFlag, 0, rOne, 0,
               /*acquire=*/false, /*release=*/true);
        emitDone(b, doneBase, rOne);
        break;
      }
    }
    b.halt();

    return finishKernel(b, name(), litmus.numWgs, /*wi_per_wg=*/1,
                        litmus.maxWgsPerCu, /*vgprs=*/8, /*lds_bytes=*/0);
}

bool
LitmusWorkload::validate(const mem::BackingStore &store,
                         const WorkloadParams &params,
                         std::string &error) const
{
    (void)params;
    for (unsigned wg = 0; wg < litmus.numWgs; ++wg) {
        std::int64_t want = 1;
        if (litmus.shape == LitmusShape::ProdCons && wg == 1)
            want = kPayload;
        std::int64_t got = store.read(doneBase + wg * 8, 8);
        if (got != want) {
            error = litmus.name + ": done[" + std::to_string(wg) +
                    "] expected " + std::to_string(want) + ", got " +
                    std::to_string(got);
            return false;
        }
    }
    return true;
}

core::Verdict
LitmusWorkload::expectedVerdict(core::Policy policy) const
{
    for (const auto &[p, v] : litmus.expected) {
        if (p == policy)
            return v;
    }
    ifp_fatal("litmus '%s' has no verdict annotation for policy %s",
              litmus.name.c_str(), core::policyName(policy));
}

const std::vector<core::Policy> &
litmusPolicies()
{
    static const std::vector<Policy> policies = {
        Policy::Baseline, Policy::Sleep, Policy::Timeout, Policy::Awg};
    return policies;
}

const std::vector<LitmusSpec> &
litmusSpecs()
{
    static const std::vector<LitmusSpec> specs = [] {
        std::vector<LitmusSpec> s;

        LitmusSpec mutual_pair;
        mutual_pair.name = "mutual-pair";
        mutual_pair.description =
            "Occupancy-bound mutual blocking pair (publish, then wait)";
        mutual_pair.shape = LitmusShape::MutualPair;
        mutual_pair.numWgs = 2;
        mutual_pair.maxWgsPerCu = 1;
        mutual_pair.numCus = 1;
        mutual_pair.expected = {
            {Policy::Baseline, Verdict::Deadlock},
            {Policy::Sleep, Verdict::Livelock},
            {Policy::Timeout, Verdict::Complete},
            {Policy::Awg, Verdict::Complete},
        };
        mutual_pair.lint = {
            {SyncStyle::Busy, "insufficient-residency",
             "only 1 of 2 WGs fits and busy-waiting never yields the "
             "CU: the static residency pass correctly predicts the "
             "Baseline deadlock the dynamic annotation records"},
            {SyncStyle::SleepBackoff, "insufficient-residency",
             "s_sleep frees issue slots but never the WG's resources; "
             "the stranded partner still can't dispatch, matching the "
             "Sleep livelock annotation"},
        };
        s.push_back(std::move(mutual_pair));

        LitmusSpec occ_barrier;
        occ_barrier.name = "occ-barrier";
        occ_barrier.description =
            "Counter barrier of 3 WGs on a machine hosting 2";
        occ_barrier.shape = LitmusShape::OccBarrier;
        occ_barrier.numWgs = 3;
        occ_barrier.maxWgsPerCu = 2;
        occ_barrier.numCus = 1;
        occ_barrier.expected = {
            {Policy::Baseline, Verdict::Deadlock},
            {Policy::Sleep, Verdict::Livelock},
            {Policy::Timeout, Verdict::Complete},
            {Policy::Awg, Verdict::Complete},
        };
        s.push_back(std::move(occ_barrier));

        LitmusSpec prod_cons;
        prod_cons.name = "prod-cons";
        prod_cons.description =
            "Producer release-publishes a flag; resident consumer waits";
        prod_cons.shape = LitmusShape::ProdCons;
        prod_cons.numWgs = 2;
        prod_cons.maxWgsPerCu = 2;
        prod_cons.numCus = 1;
        prod_cons.expected = {
            {Policy::Baseline, Verdict::Complete},
            {Policy::Sleep, Verdict::Complete},
            {Policy::Timeout, Verdict::Complete},
            {Policy::Awg, Verdict::Complete},
        };
        s.push_back(std::move(prod_cons));

        LitmusSpec spin_notify;
        spin_notify.name = "spin-notify";
        spin_notify.description =
            "Waiter notified by a PLAIN store (static lost-wakeup "
            "hazard)";
        spin_notify.shape = LitmusShape::SpinNotify;
        spin_notify.numWgs = 2;
        spin_notify.maxWgsPerCu = 2;
        spin_notify.numCus = 1;
        spin_notify.expected = {
            {Policy::Baseline, Verdict::Complete},
            {Policy::Sleep, Verdict::Complete},
            {Policy::Timeout, Verdict::Complete},
            {Policy::Awg, Verdict::Complete},
        };
        spin_notify.lint = {
            {SyncStyle::WaitInstr, "lost-wakeup",
             "the notifier's plain St can slip past a monitor that "
             "only observes atomics; the simulated L2 sees every "
             "store and the CP rescue backstop re-checks spilled "
             "waiters, so the run still completes"},
            {SyncStyle::WaitAtomic, "lost-wakeup",
             "same hazard as WaitInstr: static analysis is right to "
             "warn, the dynamic machine survives by rescue backstop"},
        };
        s.push_back(std::move(spin_notify));

        LitmusSpec circular;
        circular.name = "circular-wait";
        circular.description =
            "Each WG waits for the other's flag before setting its own";
        circular.shape = LitmusShape::CircularWait;
        circular.numWgs = 2;
        circular.maxWgsPerCu = 2;
        circular.numCus = 1;
        circular.expected = {
            {Policy::Baseline, Verdict::Deadlock},
            {Policy::Sleep, Verdict::Livelock},
            {Policy::Timeout, Verdict::Livelock},
            {Policy::Awg, Verdict::Livelock},
        };
        const char *circ_why =
            "both waits sit before the only writes that could satisfy "
            "them; the static wait-for graph's greatest fixpoint keeps "
            "every wait stuck, matching the no-schedule-completes "
            "annotation";
        for (SyncStyle style :
             {SyncStyle::Busy, SyncStyle::SleepBackoff,
              SyncStyle::WaitInstr, SyncStyle::WaitAtomic}) {
            circular.lint.push_back(
                {style, "static-circular-wait", circ_why});
        }
        s.push_back(std::move(circular));

        LitmusSpec pair_grid;
        pair_grid.name = "pair-grid-6";
        pair_grid.description =
            "Three disjoint publish-then-wait pairs, all resident";
        pair_grid.shape = LitmusShape::PairGrid;
        pair_grid.numWgs = 6;
        pair_grid.maxWgsPerCu = 6;
        pair_grid.numCus = 1;
        pair_grid.expected = {
            {Policy::Baseline, Verdict::Complete},
            {Policy::Sleep, Verdict::Complete},
            {Policy::Timeout, Verdict::Complete},
            {Policy::Awg, Verdict::Complete},
        };
        s.push_back(std::move(pair_grid));

        LitmusSpec ring;
        ring.name = "ring-6";
        ring.description =
            "Six-WG wait-before-publish ring (N-cycle circular wait)";
        ring.shape = LitmusShape::Ring;
        ring.numWgs = 6;
        ring.maxWgsPerCu = 6;
        ring.numCus = 1;
        // AWG never classifies: swapping waiters in and out of the
        // ring keeps perturbing the progress signature, so the
        // liveness oracle sees neither a frozen window (Deadlock) nor
        // a stable retry delta (Livelock) and the run honestly burns
        // its whole cycle budget — on every schedule.
        ring.expected = {
            {Policy::Baseline, Verdict::Deadlock},
            {Policy::Sleep, Verdict::Livelock},
            {Policy::Timeout, Verdict::Livelock},
            {Policy::Awg, Verdict::Exhausted},
        };
        const char *ring_why =
            "every WG's publish is dominated by its wait for the "
            "predecessor, so the wait-for graph is a 6-cycle with no "
            "unguarded notify; the fixpoint keeps all six waits stuck";
        for (SyncStyle style :
             {SyncStyle::Busy, SyncStyle::SleepBackoff,
              SyncStyle::WaitInstr, SyncStyle::WaitAtomic}) {
            ring.lint.push_back(
                {style, "static-circular-wait", ring_why});
        }
        s.push_back(std::move(ring));

        return s;
    }();
    return specs;
}

std::vector<std::string>
litmusNames()
{
    std::vector<std::string> names;
    for (const LitmusSpec &spec : litmusSpecs())
        names.push_back(spec.name);
    return names;
}

std::unique_ptr<LitmusWorkload>
makeLitmus(const std::string &name)
{
    for (const LitmusSpec &spec : litmusSpecs()) {
        if (spec.name == name)
            return std::make_unique<LitmusWorkload>(spec);
    }
    std::ostringstream known;
    bool first = true;
    for (const std::string &n : litmusNames()) {
        known << (first ? "" : ", ") << n;
        first = false;
    }
    ifp_fatal("unknown litmus '%s' (litmuses: %s)", name.c_str(),
              known.str().c_str());
}

} // namespace ifp::workloads
