#include "workloads/queues.hh"

#include "sim/logging.hh"
#include "workloads/sync_emitters.hh"

namespace ifp::workloads {

using isa::KernelBuilder;
using isa::Label;
using mem::AtomicOpcode;

namespace {

/// @name Family register conventions (survive the emitters)
/// @{
constexpr isa::Reg rExpected = 26;  //!< wait expectation
constexpr isa::Reg rVal = 27;       //!< sequence-advance operand
constexpr isa::Reg rTicket = 28;    //!< consume/source ticket
constexpr isa::Reg rPTick = 29;     //!< produce ticket (pipeline)
constexpr isa::Reg rStage = 30;     //!< pipeline stage id
constexpr isa::Reg rRing = 31;      //!< pipeline ring base scratch
constexpr isa::Reg rIdx = 28;       //!< WSD slot index
constexpr isa::Reg rVict = 29;      //!< WSD victim distance
constexpr isa::Reg rVictim = 30;    //!< WSD victim WG id
/// @}

/**
 * Load r[rSyncAddr] with the address of ring slot (ticket % depth):
 * ring_base + (ticket % depth) * 64. Clobbers rTmp1.
 */
void
emitSlotAddr(KernelBuilder &b, isa::Reg ticket_reg, unsigned depth,
             mem::Addr ring_base)
{
    b.remi(rSyncAddr, ticket_reg, static_cast<std::int64_t>(depth));
    b.muli(rSyncAddr, rSyncAddr, 64);
    b.movi(rTmp1, static_cast<std::int64_t>(ring_base));
    b.add(rSyncAddr, rSyncAddr, rTmp1);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// MPMC broker queue (MPMCQ)
// ---------------------------------------------------------------------

std::string
MpmcQueueWorkload::name() const
{
    return "MpmcQueue";
}

std::string
MpmcQueueWorkload::abbrev() const
{
    return "MPMCQ";
}

Table2Row
MpmcQueueWorkload::characteristics() const
{
    Table2Row row;
    row.abbrev = abbrev();
    row.description = "Bounded MPMC broker queue (q slot-sequence vars)";
    row.granularity = "n";
    row.numSyncVars = "q+2";
    row.condsPerVar = "GI/q";
    row.waitersPerCond = "1";
    row.updatesUntilMet = "1-2";
    return row;
}

unsigned
MpmcQueueWorkload::numProducers(unsigned num_wgs) const
{
    unsigned p = num_wgs * producerShare / (producerShare + consumerShare);
    return std::max(1u, std::min(num_wgs - 1, p));
}

isa::Kernel
MpmcQueueWorkload::build(core::GpuSystem &system,
                         const WorkloadParams &params) const
{
    ifp_assert(params.numWgs >= 2,
               "MPMCQ needs at least one producer and one consumer");
    const unsigned producers = numProducers(params.numWgs);
    const auto total = static_cast<std::int64_t>(totalItems(params));

    slotsBase = system.allocate(depth * 64ULL);
    ticketsBase = system.allocate(128);
    checksumBase = system.allocate(64);
    // Slot protocol: slot i starts its sequence at i, so the producer
    // of ticket t owns slot t % depth the moment seq == t.
    for (unsigned i = 0; i < depth; ++i)
        system.memory().write(slotsBase + i * 64ULL, i, 8);

    StyleParams sp{params.style, params.backoffMaxCycles, false};

    KernelBuilder b;
    Label l_end = b.label();
    b.bnz(isa::rWfId, l_end);
    emitSyncProlog(b, sp);

    Label consumer = b.label();
    b.cmpLti(rTmp0, isa::rWgId, producers);
    b.bz(rTmp0, consumer);

    // Producer: t = tail++; overshoot past the item total ends the
    // role (and makes the final tail value exact: total + producers).
    Label prod_loop = b.here();
    Label prod_done = b.label();
    b.movi(rTmp1, static_cast<std::int64_t>(ticketsBase));
    b.atom(rTicket, AtomicOpcode::Add, rTmp1, 0, rOne);
    b.cmpLti(rTmp0, rTicket, total);
    b.bz(rTmp0, prod_done);
    emitSlotAddr(b, rTicket, depth, slotsBase);
    b.mov(rExpected, rTicket);
    emitWaitSeqEq(b, sp, rSyncAddr, 0, rExpected);
    b.valu(params.csValuCycles);
    // The payload store shares the slot line with the monitored
    // sequence word but carries no wait condition: the releasing
    // sequence exchange below is the notification.
    b.suppressLint("lost-wakeup",
                   "slot payload store shares the line with the "
                   "sequence word; waits are on the sequence value, "
                   "which only the releasing exchange advances");
    b.st(rSyncAddr, rTicket, 8);
    b.addi(rVal, rTicket, 1);
    b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0, rVal, 0,
           /*acquire=*/false, /*release=*/true);
    b.br(prod_loop);
    b.bind(prod_done);
    b.br(l_end);

    // Consumer: t = head++; waits for seq == t+1, folds the payload
    // into the checksum and recycles the slot for ticket t + depth.
    b.bind(consumer);
    Label cons_loop = b.here();
    Label cons_done = b.label();
    b.movi(rTmp1, static_cast<std::int64_t>(ticketsBase));
    b.atom(rTicket, AtomicOpcode::Add, rTmp1, 64, rOne);
    b.cmpLti(rTmp0, rTicket, total);
    b.bz(rTmp0, cons_done);
    emitSlotAddr(b, rTicket, depth, slotsBase);
    b.addi(rExpected, rTicket, 1);
    emitWaitSeqEq(b, sp, rSyncAddr, 0, rExpected);
    b.ld(rDataVal, rSyncAddr, 8);
    b.movi(rTmp1, static_cast<std::int64_t>(checksumBase));
    b.atom(rAtomResult, AtomicOpcode::Add, rTmp1, 0, rDataVal);
    b.addi(rVal, rTicket, static_cast<std::int64_t>(depth));
    b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0, rVal, 0,
           /*acquire=*/false, /*release=*/true);
    b.br(cons_loop);
    b.bind(cons_done);

    b.bind(l_end);
    b.bar();
    b.halt();
    return finishKernel(b, abbrev(), params.numWgs, params.wiPerWg,
                        params.wgsPerGroup, 24, 1024);
}

bool
MpmcQueueWorkload::validate(const mem::BackingStore &store,
                            const WorkloadParams &params,
                            std::string &error) const
{
    const unsigned producers = numProducers(params.numWgs);
    const unsigned consumers = params.numWgs - producers;
    const auto total = static_cast<std::int64_t>(totalItems(params));

    std::int64_t tail = store.read(ticketsBase, 8);
    if (tail != total + producers) {
        error = "tail ticket " + std::to_string(tail) + ", expected " +
                std::to_string(total + producers);
        return false;
    }
    std::int64_t head = store.read(ticketsBase + 64, 8);
    if (head != total + consumers) {
        error = "head ticket " + std::to_string(head) + ", expected " +
                std::to_string(total + consumers);
        return false;
    }
    std::int64_t sum = store.read(checksumBase, 8);
    std::int64_t expected = total * (total - 1) / 2;
    if (sum != expected) {
        error = "checksum " + std::to_string(sum) + ", expected " +
                std::to_string(expected);
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Multi-stage pipeline (PIPE)
// ---------------------------------------------------------------------

std::string
PipelineWorkload::name() const
{
    return "Pipeline";
}

std::string
PipelineWorkload::abbrev() const
{
    return "PIPE";
}

Table2Row
PipelineWorkload::characteristics() const
{
    Table2Row row;
    row.abbrev = abbrev();
    row.description = "s-stage pipeline over bounded rings (empty/full)";
    row.granularity = "n";
    row.numSyncVars = "(s-1)q+2s";
    row.condsPerVar = "GI/q";
    row.waitersPerCond = "1";
    row.updatesUntilMet = "1-2";
    return row;
}

unsigned
PipelineWorkload::stageWgs(unsigned s, unsigned num_wgs) const
{
    return num_wgs / stages + (s < num_wgs % stages ? 1 : 0);
}

isa::Kernel
PipelineWorkload::build(core::GpuSystem &system,
                        const WorkloadParams &params) const
{
    ifp_assert(stages >= 2, "a pipeline needs at least two stages");
    ifp_assert(params.numWgs >= stages,
               "PIPE needs at least one WG per stage");
    const unsigned rings = stages - 1;
    const auto total = static_cast<std::int64_t>(totalItems(params));
    const std::uint64_t ring_stride = std::uint64_t(depth) * 64;

    ringsBase = system.allocate(rings * ring_stride);
    ticketsBase = system.allocate(rings * 128ULL);
    sourceBase = system.allocate(64);
    checksumBase = system.allocate(64);
    for (unsigned r = 0; r < rings; ++r)
        for (unsigned i = 0; i < depth; ++i)
            system.memory().write(ringsBase + r * ring_stride + i * 64,
                                  i, 8);

    StyleParams sp{params.style, params.backoffMaxCycles, false};

    KernelBuilder b;
    Label l_end = b.label();
    b.bnz(isa::rWfId, l_end);
    emitSyncProlog(b, sp);
    b.remi(rStage, isa::rWgId, static_cast<std::int64_t>(stages));

    Label source_stage = b.label();
    Label sink_stage = b.label();
    b.bz(rStage, source_stage);
    b.cmpEqi(rTmp0, rStage, static_cast<std::int64_t>(stages - 1));
    b.bnz(rTmp0, sink_stage);

    // Interior stage s: consume ring s-1, transform (+1), forward
    // into ring s. The ring bases are register-computed so one code
    // body serves every interior stage.
    {
        Label m_loop = b.here();
        Label m_done = b.label();
        b.subi(rRing, rStage, 1);
        b.muli(rRing, rRing, 128);
        b.movi(rTmp1, static_cast<std::int64_t>(ticketsBase));
        b.add(rRing, rRing, rTmp1);
        b.atom(rTicket, AtomicOpcode::Add, rRing, 64, rOne);
        b.cmpLti(rTmp0, rTicket, total);
        b.bz(rTmp0, m_done);
        // Input slot of ring s-1: wait not-empty (seq == t+1).
        b.subi(rRing, rStage, 1);
        b.muli(rRing, rRing, static_cast<std::int64_t>(ring_stride));
        b.movi(rTmp1, static_cast<std::int64_t>(ringsBase));
        b.add(rRing, rRing, rTmp1);
        b.remi(rSyncAddr, rTicket, static_cast<std::int64_t>(depth));
        b.muli(rSyncAddr, rSyncAddr, 64);
        b.add(rSyncAddr, rSyncAddr, rRing);
        b.addi(rExpected, rTicket, 1);
        emitWaitSeqEq(b, sp, rSyncAddr, 0, rExpected);
        b.ld(rDataVal, rSyncAddr, 8);
        b.addi(rVal, rTicket, static_cast<std::int64_t>(depth));
        b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0, rVal, 0,
               /*acquire=*/false, /*release=*/true);
        b.addi(rDataVal, rDataVal, 1);
        // Output slot of ring s: wait not-full (seq == produce ticket).
        b.muli(rRing, rStage, 128);
        b.movi(rTmp1, static_cast<std::int64_t>(ticketsBase));
        b.add(rRing, rRing, rTmp1);
        b.atom(rPTick, AtomicOpcode::Add, rRing, 0, rOne);
        b.muli(rRing, rStage, static_cast<std::int64_t>(ring_stride));
        b.movi(rTmp1, static_cast<std::int64_t>(ringsBase));
        b.add(rRing, rRing, rTmp1);
        b.remi(rSyncAddr, rPTick, static_cast<std::int64_t>(depth));
        b.muli(rSyncAddr, rSyncAddr, 64);
        b.add(rSyncAddr, rSyncAddr, rRing);
        b.mov(rExpected, rPTick);
        emitWaitSeqEq(b, sp, rSyncAddr, 0, rExpected);
        // Kernel-scoped: covers every stage's payload store — all
        // rings use the same slot protocol, where the releasing
        // sequence exchange is the notification.
        b.suppressLint("lost-wakeup",
                       "slot payload store shares the line with the "
                       "sequence word; waits are on the sequence "
                       "value, which only the releasing exchange "
                       "advances");
        b.st(rSyncAddr, rDataVal, 8);
        b.addi(rVal, rPTick, 1);
        b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0, rVal, 0,
               /*acquire=*/false, /*release=*/true);
        b.br(m_loop);
        b.bind(m_done);
        b.br(l_end);
    }

    // Stage 0: source numbered items into ring 0.
    {
        b.bind(source_stage);
        Label s0_loop = b.here();
        Label s0_done = b.label();
        b.movi(rTmp1, static_cast<std::int64_t>(sourceBase));
        b.atom(rTicket, AtomicOpcode::Add, rTmp1, 0, rOne);
        b.cmpLti(rTmp0, rTicket, total);
        b.bz(rTmp0, s0_done);
        b.valu(params.csValuCycles);
        b.movi(rTmp1, static_cast<std::int64_t>(ticketsBase));
        b.atom(rPTick, AtomicOpcode::Add, rTmp1, 0, rOne);
        emitSlotAddr(b, rPTick, depth, ringsBase);
        b.mov(rExpected, rPTick);
        emitWaitSeqEq(b, sp, rSyncAddr, 0, rExpected);
        b.st(rSyncAddr, rTicket, 8);
        b.addi(rVal, rPTick, 1);
        b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0, rVal, 0,
               /*acquire=*/false, /*release=*/true);
        b.br(s0_loop);
        b.bind(s0_done);
        b.br(l_end);
    }

    // Final stage: drain ring stages-2 into the checksum.
    {
        b.bind(sink_stage);
        const mem::Addr sink_tickets = ticketsBase + (rings - 1) * 128ULL;
        const mem::Addr sink_ring = ringsBase + (rings - 1) * ring_stride;
        Label sk_loop = b.here();
        Label sk_done = b.label();
        b.movi(rTmp1, static_cast<std::int64_t>(sink_tickets));
        b.atom(rTicket, AtomicOpcode::Add, rTmp1, 64, rOne);
        b.cmpLti(rTmp0, rTicket, total);
        b.bz(rTmp0, sk_done);
        emitSlotAddr(b, rTicket, depth, sink_ring);
        b.addi(rExpected, rTicket, 1);
        emitWaitSeqEq(b, sp, rSyncAddr, 0, rExpected);
        b.ld(rDataVal, rSyncAddr, 8);
        b.movi(rTmp1, static_cast<std::int64_t>(checksumBase));
        b.atom(rAtomResult, AtomicOpcode::Add, rTmp1, 0, rDataVal);
        b.addi(rVal, rTicket, static_cast<std::int64_t>(depth));
        b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0, rVal, 0,
               /*acquire=*/false, /*release=*/true);
        b.br(sk_loop);
        b.bind(sk_done);
    }

    b.bind(l_end);
    b.bar();
    b.halt();
    return finishKernel(b, abbrev(), params.numWgs, params.wiPerWg,
                        params.wgsPerGroup, 28, 1024);
}

bool
PipelineWorkload::validate(const mem::BackingStore &store,
                           const WorkloadParams &params,
                           std::string &error) const
{
    const unsigned rings = stages - 1;
    const auto total = static_cast<std::int64_t>(totalItems(params));

    std::int64_t source = store.read(sourceBase, 8);
    std::int64_t source_want = total + stageWgs(0, params.numWgs);
    if (source != source_want) {
        error = "source ticket " + std::to_string(source) +
                ", expected " + std::to_string(source_want);
        return false;
    }
    for (unsigned r = 0; r < rings; ++r) {
        std::int64_t tail = store.read(ticketsBase + r * 128ULL, 8);
        if (tail != total) {
            error = "ring " + std::to_string(r) + " tail " +
                    std::to_string(tail) + ", expected " +
                    std::to_string(total);
            return false;
        }
        std::int64_t head = store.read(ticketsBase + r * 128ULL + 64, 8);
        std::int64_t head_want =
            total + stageWgs(r + 1, params.numWgs);
        if (head != head_want) {
            error = "ring " + std::to_string(r) + " head " +
                    std::to_string(head) + ", expected " +
                    std::to_string(head_want);
            return false;
        }
    }
    std::int64_t sum = store.read(checksumBase, 8);
    std::int64_t expected = total * (total - 1) / 2 +
                            total * static_cast<std::int64_t>(stages - 2);
    if (sum != expected) {
        error = "checksum " + std::to_string(sum) + ", expected " +
                std::to_string(expected);
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Work-stealing task graph (WSD)
// ---------------------------------------------------------------------

std::string
WorkStealWorkload::name() const
{
    return "WorkSteal";
}

std::string
WorkStealWorkload::abbrev() const
{
    return "WSD";
}

Table2Row
WorkStealWorkload::characteristics() const
{
    Table2Row row;
    row.abbrev = abbrev();
    row.description = "Work-stealing deques + ceiling drain counter";
    row.granularity = "n";
    row.numSyncVars = "GI+1";
    row.condsPerVar = "1";
    row.waitersPerCond = "G";
    row.updatesUntilMet = "GI";
    return row;
}

isa::Kernel
WorkStealWorkload::build(core::GpuSystem &system,
                         const WorkloadParams &params) const
{
    const auto total = static_cast<std::int64_t>(totalTasks(params));
    const auto tasks_per_wg = static_cast<std::int64_t>(params.iters);

    tasksBase = system.allocate(static_cast<std::uint64_t>(total) * 64);
    doneBase = system.allocate(64);
    checksumBase = system.allocate(64);
    for (std::int64_t g = 0; g < total; ++g) {
        system.memory().write(tasksBase + g * 64, 0, 8);      // claim
        system.memory().write(tasksBase + g * 64 + 8, g, 8);  // value
    }

    StyleParams sp{params.style, params.backoffMaxCycles, false};

    KernelBuilder b;
    Label l_end = b.label();
    b.bnz(isa::rWfId, l_end);
    emitSyncProlog(b, sp);

    // One deque scan: claim-and-run every task of r[rVictim]'s deque.
    // Shared between the own-deque drain and the steal sweep.
    auto emit_deque_scan = [&](Label &next) {
        b.movi(rIdx, 0);
        Label scan = b.here();
        Label skip = b.label();
        b.muli(rSyncAddr, rVictim, tasks_per_wg);
        b.add(rSyncAddr, rSyncAddr, rIdx);
        b.muli(rSyncAddr, rSyncAddr, 64);
        b.movi(rTmp1, static_cast<std::int64_t>(tasksBase));
        b.add(rSyncAddr, rSyncAddr, rTmp1);
        b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0, rOne, 0,
               /*acquire=*/true);
        b.bnz(rAtomResult, skip);
        b.ld(rDataVal, rSyncAddr, 8);
        b.valu(params.csValuCycles);
        // WG 0's deque holds heavy tasks (8x): the other WGs drain,
        // sweep and then PARK on the done counter while the heavy
        // tasks finish — that parked crowd, watching a counter that
        // climbs through G*iters distinct values, is the predictor
        // stress this workload exists for.
        Label light = b.label();
        b.divi(rTmp0, rDataVal, tasks_per_wg);
        b.bnz(rTmp0, light);
        b.valu(params.csValuCycles * 512);
        b.bind(light);
        b.movi(rTmp1, static_cast<std::int64_t>(checksumBase));
        b.atom(rAtomResult, AtomicOpcode::Add, rTmp1, 0, rDataVal);
        b.movi(rTmp1, static_cast<std::int64_t>(doneBase));
        b.atom(rAtomResult, AtomicOpcode::Add, rTmp1, 0, rOne, 0,
               /*acquire=*/false, /*release=*/true);
        b.bind(skip);
        b.addi(rIdx, rIdx, 1);
        b.cmpLti(rTmp0, rIdx, tasks_per_wg);
        b.bnz(rTmp0, scan);
        (void)next;
    };

    // Drain the own deque first...
    Label own_done = b.label();
    b.mov(rVictim, isa::rWgId);
    emit_deque_scan(own_done);

    // ...then probe a few neighbours' deques for leftovers. The probe
    // span is deliberately short (real stealers probe, they don't
    // scan the world): WGs far from the heavy deque finish their
    // probes quickly and park on the drain counter below. Every task
    // still runs — its owner attempts every own slot unconditionally.
    const std::int64_t steal_span =
        std::min<std::int64_t>(4, params.numWgs - 1);
    b.movi(rVict, 1);
    Label sweep = b.here();
    b.add(rVictim, isa::rWgId, rVict);
    b.remi(rVictim, rVictim, static_cast<std::int64_t>(params.numWgs));
    Label sweep_next = b.label();
    emit_deque_scan(sweep_next);
    b.addi(rVict, rVict, 1);
    b.cmpLei(rTmp0, rVict, steal_span);
    b.bnz(rTmp0, sweep);

    // Park until every task has been run: done parks at the total, so
    // the ceiling wait is safe in every style.
    b.movi(rExpected, total);
    b.movi(rDataAddr, static_cast<std::int64_t>(doneBase));
    emitWaitCounterReach(b, sp, rDataAddr, 0, rExpected);

    b.bind(l_end);
    b.bar();
    b.halt();
    return finishKernel(b, abbrev(), params.numWgs, params.wiPerWg,
                        params.wgsPerGroup, 26, 1024);
}

bool
WorkStealWorkload::validate(const mem::BackingStore &store,
                            const WorkloadParams &params,
                            std::string &error) const
{
    const auto total = static_cast<std::int64_t>(totalTasks(params));
    std::int64_t done = store.read(doneBase, 8);
    if (done != total) {
        error = "done counter " + std::to_string(done) +
                ", expected " + std::to_string(total);
        return false;
    }
    for (std::int64_t g = 0; g < total; ++g) {
        if (store.read(tasksBase + g * 64, 8) != 1) {
            error = "task " + std::to_string(g) + " left unclaimed";
            return false;
        }
    }
    std::int64_t sum = store.read(checksumBase, 8);
    std::int64_t expected = total * (total - 1) / 2;
    if (sum != expected) {
        error = "checksum " + std::to_string(sum) + ", expected " +
                std::to_string(expected);
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Registry glue + verdict annotations
// ---------------------------------------------------------------------

std::vector<std::string>
queueAbbrevs()
{
    return {"MPMCQ", "PIPE", "WSD"};
}

core::Verdict
queueExpectedVerdict(const std::string &abbrev, core::Policy policy)
{
    (void)policy;
    // At the default all-resident geometry every WG keeps its CU, so
    // the whole family completes under every policy — including the
    // IFP-less busy/sleep baselines, whose spinning peers stay
    // scheduled. Oversubscribed geometries are a different contract
    // (and are exercised by the determinism/fault gates instead).
    for (const std::string &a : queueAbbrevs()) {
        if (a == abbrev)
            return core::Verdict::Complete;
    }
    ifp_fatal("no verdict annotation for workload '%s'",
              abbrev.c_str());
}

} // namespace ifp::workloads
