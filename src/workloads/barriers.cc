#include "workloads/barriers.hh"

#include "sim/logging.hh"
#include "workloads/sync_emitters.hh"

namespace ifp::workloads {

using isa::KernelBuilder;
using isa::Label;
using mem::AtomicOpcode;

namespace {

constexpr isa::Reg rLocalRelAddr = 26;
constexpr isa::Reg rAddrScratch = 27;
constexpr isa::Reg rGroup = 28;
constexpr isa::Reg rGroupFirst = 29;
constexpr isa::Reg rArriveOld = 30;
constexpr isa::Reg rIdx = 31;

/** Per-round LDS exchange performed by every wavefront (EX variants). */
void
emitLdsExchange(KernelBuilder &b, const WorkloadParams &params)
{
    // Publish my round value, sync, read a neighbour's slot, work.
    b.muli(rTmp1, isa::rWfId, 8);
    b.stLds(rTmp1, rIter);
    b.bar();
    b.ldLds(rDataVal, rTmp1);
    b.valu(params.csValuCycles);
}

/** Per-round compute between barrier episodes (all variants). */
void
emitRoundWork(KernelBuilder &b, const WorkloadParams &params)
{
    b.valu(params.csValuCycles);
}

/**
 * Data-dependent startup skew: real kernels never reach their first
 * barrier in lockstep, and the skew is what lets early waiters arm
 * the monitor while the rest of their group is still arriving. The
 * spread is largest *within* a group (whose members contend on one
 * line) and smaller across groups.
 */
void
emitStartupSkew(KernelBuilder &b, unsigned members)
{
    auto m = static_cast<std::int64_t>(members);
    b.remi(rTmp1, isa::rWgId, m);
    b.muli(rTmp1, rTmp1, 75);
    b.divi(rTmp0, isa::rWgId, m);
    b.muli(rTmp0, rTmp0, 50);
    b.add(rTmp1, rTmp1, rTmp0);
    b.addi(rTmp1, rTmp1, 1);
    Label skew = b.here();
    b.subi(rTmp1, rTmp1, 1);
    b.bnz(rTmp1, skew);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Centralized two-level atomic tree barrier (TB_LG / TBEX_LG)
// ---------------------------------------------------------------------

std::string
TreeBarrierWorkload::name() const
{
    return exchange ? "AtomicTreeBarrLocalExch" : "AtomicTreeBarr";
}

std::string
TreeBarrierWorkload::abbrev() const
{
    return exchange ? "TBEX_LG" : "TB_LG";
}

Table2Row
TreeBarrierWorkload::characteristics() const
{
    Table2Row row;
    row.abbrev = abbrev();
    row.description = exchange
                          ? "Two-level tree barrier w/ LDS exchange"
                          : "Two-level tree barrier";
    row.granularity = "n";
    row.numSyncVars = "G/L";
    row.condsPerVar = "1";
    row.waitersPerCond = "L";
    row.updatesUntilMet = "L";
    return row;
}

isa::Kernel
TreeBarrierWorkload::build(core::GpuSystem &system,
                           const WorkloadParams &params) const
{
    unsigned members = params.wgsPerGroup;
    unsigned groups = (params.numWgs + members - 1) / members;
    ifp_assert(params.numWgs % members == 0,
               "TB requires G to be a multiple of L");

    // One line per group: arrival counter at +0, release flag at +8.
    // Colocating them is what HeteroSync's atomic tree barrier does:
    // the release waiters' monitored line receives every arrival
    // update, so AWG's per-line Bloom filter observes many unique
    // values and predicts resume-all (barrier-like), while the flag
    // itself stays stable for the whole round (no ABA hazard for
    // equality-waiting atomics).
    localCountBase = system.allocate(groups * 64ULL);
    localReleaseBase = localCountBase + 8;
    globalBase = system.allocate(64);
    doneBase = system.allocate(64);

    StyleParams sp{params.style, params.backoffMaxCycles, false};

    KernelBuilder b;
    emitSyncProlog(b, sp);
    b.divi(rGroup, isa::rWgId, members);
    b.muli(rTmp1, rGroup, 64);
    b.movi(rSyncAddr, static_cast<std::int64_t>(localCountBase));
    b.add(rSyncAddr, rSyncAddr, rTmp1);
    emitStartupSkew(b, members);
    b.movi(rIter, 0);

    Label round = b.here();
    b.addi(rIter, rIter, 1);  // round number (1-based)
    if (exchange)
        emitLdsExchange(b, params);
    else
        emitRoundWork(b, params);

    Label skip_sync = b.label();
    b.bnz(isa::rWfId, skip_sync);  // master wavefront only

    {
        Label last_local = b.label();
        Label round_done = b.label();

        // First level: arrive at the group's counter.
        b.atom(rArriveOld, AtomicOpcode::Add, rSyncAddr, 0, rOne, 0,
               /*acquire=*/true);
        b.cmpEqi(rTmp0, rArriveOld,
                 static_cast<std::int64_t>(members) - 1);
        b.bnz(rTmp0, last_local);
        // Not last: wait for this round's release broadcast (+8).
        emitWaitEq(b, sp, rSyncAddr, 8, rIter);
        b.br(round_done);

        b.bind(last_local);
        // Group leader: reset the counter, go up to the second level.
        b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0,
               isa::rZero);
        b.movi(rAddrScratch, static_cast<std::int64_t>(globalBase));
        b.atom(rArriveOld, AtomicOpcode::Add, rAddrScratch, 0, rOne,
               0, /*acquire=*/true);
        b.cmpEqi(rTmp0, rArriveOld,
                 static_cast<std::int64_t>(groups) - 1);
        Label last_global = b.label();
        Label release_group = b.label();
        b.bnz(rTmp0, last_global);
        // Wait for the global release flag (+8 on the global line).
        emitWaitEq(b, sp, rAddrScratch, 8, rIter);
        b.br(release_group);

        b.bind(last_global);
        b.atom(rAtomResult, AtomicOpcode::Exch, rAddrScratch, 0,
               isa::rZero);
        b.atom(rAtomResult, AtomicOpcode::Exch, rAddrScratch, 8,
               rIter, 0, /*acquire=*/false, /*release=*/true);

        b.bind(release_group);
        // Broadcast the round to the group's members.
        b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 8, rIter,
               0, /*acquire=*/false, /*release=*/true);
        b.bind(round_done);
    }

    b.bind(skip_sync);
    b.bar();
    b.cmpLti(rTmp0, rIter, params.iters);
    b.bnz(rTmp0, round);

    // Completion counter (master only).
    Label l_end = b.label();
    b.bnz(isa::rWfId, l_end);
    b.movi(rAddrScratch, static_cast<std::int64_t>(doneBase));
    b.atom(rAtomResult, AtomicOpcode::Inc, rAddrScratch, 0,
           isa::rZero);
    b.bind(l_end);
    b.bar();
    b.halt();

    return finishKernel(b, abbrev(), params.numWgs, params.wiPerWg,
                        params.wgsPerGroup, exchange ? 34 : 24,
                        exchange ? 2048 : 1024);
}

bool
TreeBarrierWorkload::validate(const mem::BackingStore &store,
                              const WorkloadParams &params,
                              std::string &error) const
{
    unsigned members = params.wgsPerGroup;
    unsigned groups = params.numWgs / members;
    std::int64_t done = store.read(doneBase, 8);
    if (done != static_cast<std::int64_t>(params.numWgs)) {
        error = "done counter " + std::to_string(done);
        return false;
    }
    for (unsigned g = 0; g < groups; ++g) {
        if (store.read(localCountBase + g * 64, 8) != 0) {
            error = "local count " + std::to_string(g) + " not reset";
            return false;
        }
        std::int64_t rel = store.read(localReleaseBase + g * 64, 8);
        if (rel != static_cast<std::int64_t>(params.iters)) {
            error = "local release " + std::to_string(g) + " = " +
                    std::to_string(rel);
            return false;
        }
    }
    if (store.read(globalBase, 8) != 0) {
        error = "global count not reset";
        return false;
    }
    if (store.read(globalBase + 8, 8) !=
        static_cast<std::int64_t>(params.iters)) {
        error = "global release wrong";
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Decentralized two-level tree barrier (LFTB_LG / LFTBEX_LG)
// ---------------------------------------------------------------------

std::string
LfTreeBarrierWorkload::name() const
{
    return exchange ? "LFTreeBarrLocalExch" : "LFTreeBarr";
}

std::string
LfTreeBarrierWorkload::abbrev() const
{
    return exchange ? "LFTBEX_LG" : "LFTB_LG";
}

Table2Row
LfTreeBarrierWorkload::characteristics() const
{
    Table2Row row;
    row.abbrev = abbrev();
    row.description =
        exchange ? "Decentralized tree barrier w/ LDS exchange"
                 : "Decentralized two-level tree barrier";
    row.granularity = "n";
    row.numSyncVars = "G";
    row.condsPerVar = "1";
    row.waitersPerCond = "1";
    row.updatesUntilMet = "1";
    return row;
}

isa::Kernel
LfTreeBarrierWorkload::build(core::GpuSystem &system,
                             const WorkloadParams &params) const
{
    unsigned members = params.wgsPerGroup;
    unsigned groups = (params.numWgs + members - 1) / members;
    ifp_assert(params.numWgs % members == 0,
               "LFTB requires G to be a multiple of L");

    arriveBase = system.allocate(params.numWgs * 64ULL);
    releaseBase = system.allocate(params.numWgs * 64ULL);
    groupArriveBase = system.allocate(groups * 64ULL);
    groupReleaseBase = system.allocate(groups * 64ULL);
    doneBase = system.allocate(64);

    StyleParams sp{params.style, params.backoffMaxCycles, false};

    KernelBuilder b;
    emitSyncProlog(b, sp);
    b.divi(rGroup, isa::rWgId, members);
    b.muli(rGroupFirst, rGroup, members);
    emitStartupSkew(b, members);
    b.movi(rIter, 0);

    Label round = b.here();
    b.addi(rIter, rIter, 1);
    if (exchange)
        emitLdsExchange(b, params);
    else
        emitRoundWork(b, params);

    Label skip_sync = b.label();
    b.bnz(isa::rWfId, skip_sync);

    {
        Label leader_path = b.label();
        Label sync_done = b.label();

        b.sub(rTmp1, isa::rWgId, rGroupFirst);
        b.bz(rTmp1, leader_path);

        // ---- member: publish arrival, wait for my private release.
        b.muli(rSyncAddr, isa::rWgId, 64);
        b.movi(rTmp1, static_cast<std::int64_t>(arriveBase));
        b.add(rSyncAddr, rSyncAddr, rTmp1);
        b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0, rIter,
               0, /*acquire=*/false, /*release=*/true);
        b.muli(rSyncAddr, isa::rWgId, 64);
        b.movi(rTmp1, static_cast<std::int64_t>(releaseBase));
        b.add(rSyncAddr, rSyncAddr, rTmp1);
        emitWaitEq(b, sp, rSyncAddr, 0, rIter);
        b.br(sync_done);

        // ---- leader: gather members, synchronize leaders, release.
        b.bind(leader_path);
        {
            // Wait for each member's arrive flag.
            Label gather_done = b.label();
            b.movi(rIdx, 1);
            b.cmpLti(rTmp0, rIdx, members);
            b.bz(rTmp0, gather_done);
            Label gather = b.here();
            b.add(rSyncAddr, rGroupFirst, rIdx);
            b.muli(rSyncAddr, rSyncAddr, 64);
            b.movi(rTmp1, static_cast<std::int64_t>(arriveBase));
            b.add(rSyncAddr, rSyncAddr, rTmp1);
            emitWaitEq(b, sp, rSyncAddr, 0, rIter);
            b.addi(rIdx, rIdx, 1);
            b.cmpLti(rTmp0, rIdx, members);
            b.bnz(rTmp0, gather);
            b.bind(gather_done);

            // Second level across group leaders.
            Label root_path = b.label();
            Label level2_done = b.label();
            b.bz(rGroup, root_path);
            // Non-root leader: publish group arrival, await release.
            b.muli(rSyncAddr, rGroup, 64);
            b.movi(rTmp1,
                   static_cast<std::int64_t>(groupArriveBase));
            b.add(rSyncAddr, rSyncAddr, rTmp1);
            b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0,
                   rIter, 0, /*acquire=*/false, /*release=*/true);
            b.muli(rSyncAddr, rGroup, 64);
            b.movi(rTmp1,
                   static_cast<std::int64_t>(groupReleaseBase));
            b.add(rSyncAddr, rSyncAddr, rTmp1);
            emitWaitEq(b, sp, rSyncAddr, 0, rIter);
            b.br(level2_done);

            // Root: gather the other leaders, then release them.
            b.bind(root_path);
            {
                Label root_gather_done = b.label();
                b.movi(rIdx, 1);
                b.cmpLti(rTmp0, rIdx,
                         static_cast<std::int64_t>(groups));
                b.bz(rTmp0, root_gather_done);
                Label root_gather = b.here();
                b.muli(rSyncAddr, rIdx, 64);
                b.movi(rTmp1,
                       static_cast<std::int64_t>(groupArriveBase));
                b.add(rSyncAddr, rSyncAddr, rTmp1);
                emitWaitEq(b, sp, rSyncAddr, 0, rIter);
                b.addi(rIdx, rIdx, 1);
                b.cmpLti(rTmp0, rIdx,
                         static_cast<std::int64_t>(groups));
                b.bnz(rTmp0, root_gather);
                b.bind(root_gather_done);

                Label root_release_done = b.label();
                b.movi(rIdx, 1);
                b.cmpLti(rTmp0, rIdx,
                         static_cast<std::int64_t>(groups));
                b.bz(rTmp0, root_release_done);
                Label root_release = b.here();
                b.muli(rSyncAddr, rIdx, 64);
                b.movi(rTmp1,
                       static_cast<std::int64_t>(groupReleaseBase));
                b.add(rSyncAddr, rSyncAddr, rTmp1);
                b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0,
                       rIter, 0, /*acquire=*/false, /*release=*/true);
                b.addi(rIdx, rIdx, 1);
                b.cmpLti(rTmp0, rIdx,
                         static_cast<std::int64_t>(groups));
                b.bnz(rTmp0, root_release);
                b.bind(root_release_done);
            }
            b.bind(level2_done);

            // Release my group's members.
            Label release_done = b.label();
            b.movi(rIdx, 1);
            b.cmpLti(rTmp0, rIdx, members);
            b.bz(rTmp0, release_done);
            Label release = b.here();
            b.add(rSyncAddr, rGroupFirst, rIdx);
            b.muli(rSyncAddr, rSyncAddr, 64);
            b.movi(rTmp1, static_cast<std::int64_t>(releaseBase));
            b.add(rSyncAddr, rSyncAddr, rTmp1);
            b.atom(rAtomResult, AtomicOpcode::Exch, rSyncAddr, 0,
                   rIter, 0, /*acquire=*/false, /*release=*/true);
            b.addi(rIdx, rIdx, 1);
            b.cmpLti(rTmp0, rIdx, members);
            b.bnz(rTmp0, release);
            b.bind(release_done);
        }
        b.bind(sync_done);
    }

    b.bind(skip_sync);
    b.bar();
    b.cmpLti(rTmp0, rIter, params.iters);
    b.bnz(rTmp0, round);

    Label l_end = b.label();
    b.bnz(isa::rWfId, l_end);
    b.movi(rTmp1, static_cast<std::int64_t>(doneBase));
    b.atom(rAtomResult, AtomicOpcode::Inc, rTmp1, 0, isa::rZero);
    b.bind(l_end);
    b.bar();
    b.halt();

    return finishKernel(b, abbrev(), params.numWgs, params.wiPerWg,
                        params.wgsPerGroup, exchange ? 38 : 28,
                        exchange ? 2048 : 1024);
}

bool
LfTreeBarrierWorkload::validate(const mem::BackingStore &store,
                                const WorkloadParams &params,
                                std::string &error) const
{
    unsigned members = params.wgsPerGroup;
    unsigned groups = params.numWgs / members;
    std::int64_t done = store.read(doneBase, 8);
    if (done != static_cast<std::int64_t>(params.numWgs)) {
        error = "done counter " + std::to_string(done);
        return false;
    }
    auto rounds = static_cast<std::int64_t>(params.iters);
    for (unsigned w = 0; w < params.numWgs; ++w) {
        bool leader = w % members == 0;
        if (leader)
            continue;
        if (store.read(arriveBase + w * 64, 8) != rounds) {
            error = "arrive flag wg" + std::to_string(w);
            return false;
        }
        if (store.read(releaseBase + w * 64, 8) != rounds) {
            error = "release flag wg" + std::to_string(w);
            return false;
        }
    }
    for (unsigned g = 1; g < groups; ++g) {
        if (store.read(groupArriveBase + g * 64, 8) != rounds) {
            error = "group arrive " + std::to_string(g);
            return false;
        }
        if (store.read(groupReleaseBase + g * 64, 8) != rounds) {
            error = "group release " + std::to_string(g);
            return false;
        }
    }
    return true;
}

} // namespace ifp::workloads
