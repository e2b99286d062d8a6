#include "workloads/mutexes.hh"

#include "sim/logging.hh"
#include "workloads/sync_emitters.hh"

namespace ifp::workloads {

using isa::KernelBuilder;
using isa::Label;
using mem::AtomicOpcode;

namespace {

/// @name Workload-level register conventions (beyond the emitters')
/// @{
constexpr isa::Reg rGroup = 28;
constexpr isa::Reg rScratchA = 29;
constexpr isa::Reg rScratchB = 30;
constexpr isa::Reg rScratchC = 31;
constexpr isa::Reg rMyTicket = 26;
constexpr isa::Reg rConst = 27;
/// @}

/** Emit group index and per-group addresses into the fixed regs. */
void
emitGroupAddrs(KernelBuilder &b, unsigned group_size,
               mem::Addr sync_base, std::uint64_t sync_stride,
               mem::Addr data_base)
{
    b.divi(rGroup, isa::rWgId, group_size);
    b.muli(rScratchA, rGroup, static_cast<std::int64_t>(sync_stride));
    b.movi(rSyncAddr, static_cast<std::int64_t>(sync_base));
    b.add(rSyncAddr, rSyncAddr, rScratchA);
    b.muli(rScratchA, rGroup, 64);
    b.movi(rDataAddr, static_cast<std::int64_t>(data_base));
    b.add(rDataAddr, rDataAddr, rScratchA);
}

/** Critical section: per-lane work plus a guarded counter update. */
void
emitCriticalSection(KernelBuilder &b, const WorkloadParams &params)
{
    b.valu(params.csValuCycles);
    b.ld(rDataVal, rDataAddr);
    b.addi(rDataVal, rDataVal, 1);
    b.st(rDataAddr, rDataVal);
}

/** Standard iteration-loop tail. */
void
emitLoopTail(KernelBuilder &b, const WorkloadParams &params,
             const Label &loop_head)
{
    b.addi(rIter, rIter, 1);
    b.cmpLti(rTmp0, rIter, params.iters);
    b.bnz(rTmp0, loop_head);
}

bool
checkGroupCounters(const mem::BackingStore &store, mem::Addr data_base,
                   unsigned groups, std::uint64_t expected,
                   std::string &error, const char *what)
{
    for (unsigned g = 0; g < groups; ++g) {
        std::int64_t got = store.read(data_base + g * 64, 8);
        if (got != static_cast<std::int64_t>(expected)) {
            error = std::string(what) + " group " + std::to_string(g) +
                    ": expected " + std::to_string(expected) +
                    ", got " + std::to_string(got);
            return false;
        }
    }
    return true;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// SpinMutex (test-and-set), optionally with software backoff (SPMBO)
// ---------------------------------------------------------------------

std::string
SpinMutexWorkload::name() const
{
    return backoff ? "SpinMutexBackoff" : "SpinMutex";
}

std::string
SpinMutexWorkload::abbrev() const
{
    std::string base = backoff ? "SPMBO" : "SPM";
    return base + (scope == Scope::Global ? "_G" : "_L");
}

Table2Row
SpinMutexWorkload::characteristics() const
{
    Table2Row row;
    row.abbrev = abbrev();
    row.description = backoff
                          ? "Test-and-set lock w/ backoff"
                          : "Test-and-set lock";
    row.granularity = "n";
    row.numSyncVars = scope == Scope::Global ? "1" : "G/L";
    row.condsPerVar = "1";
    row.waitersPerCond = scope == Scope::Global ? "G" : "L";
    row.updatesUntilMet = "2";
    return row;
}

isa::Kernel
SpinMutexWorkload::build(core::GpuSystem &system,
                         const WorkloadParams &params) const
{
    unsigned groups = params.numGroups(scope);
    locksBase = system.allocate(groups * 64ULL);
    dataBase = system.allocate(groups * 64ULL);

    StyleParams sp{params.style, params.backoffMaxCycles,
                   backoff && params.style == core::SyncStyle::Busy};

    KernelBuilder b;
    Label l_end = b.label();
    b.bnz(isa::rWfId, l_end);
    emitSyncProlog(b, sp);
    emitGroupAddrs(b, params.groupSize(scope), locksBase, 64, dataBase);
    b.movi(rIter, 0);

    Label loop = b.here();
    emitTasAcquire(b, sp, rSyncAddr);
    emitCriticalSection(b, params);
    emitTasRelease(b, rSyncAddr);
    emitLoopTail(b, params, loop);

    b.bind(l_end);
    b.bar();
    b.halt();
    return finishKernel(b, abbrev(), params.numWgs, params.wiPerWg,
                        params.wgsPerGroup, backoff ? 14 : 10, 1024);
}

bool
SpinMutexWorkload::validate(const mem::BackingStore &store,
                            const WorkloadParams &params,
                            std::string &error) const
{
    unsigned groups = params.numGroups(scope);
    std::uint64_t expected =
        std::uint64_t(params.groupSize(scope)) * params.iters;
    if (!checkGroupCounters(store, dataBase, groups, expected, error,
                            "counter")) {
        return false;
    }
    for (unsigned g = 0; g < groups; ++g) {
        if (store.read(locksBase + g * 64, 8) != 0) {
            error = "lock " + std::to_string(g) + " left held";
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// FAMutex (centralized ticket lock)
// ---------------------------------------------------------------------

std::string
FaMutexWorkload::name() const
{
    return "FAMutex";
}

std::string
FaMutexWorkload::abbrev() const
{
    return scope == Scope::Global ? "FAM_G" : "FAM_L";
}

Table2Row
FaMutexWorkload::characteristics() const
{
    Table2Row row;
    row.abbrev = abbrev();
    row.description = "Centralized ticket lock";
    row.granularity = "n";
    row.numSyncVars = scope == Scope::Global ? "1" : "G/L";
    row.condsPerVar = scope == Scope::Global ? "G" : "L";
    row.waitersPerCond = "1";
    row.updatesUntilMet = "1";
    return row;
}

isa::Kernel
FaMutexWorkload::build(core::GpuSystem &system,
                       const WorkloadParams &params) const
{
    unsigned groups = params.numGroups(scope);
    // Per group: line 0 = ticket counter, line 1 = now-serving.
    syncBase = system.allocate(groups * 128ULL);
    dataBase = system.allocate(groups * 64ULL);

    StyleParams sp{params.style, params.backoffMaxCycles, false};

    KernelBuilder b;
    Label l_end = b.label();
    b.bnz(isa::rWfId, l_end);
    emitSyncProlog(b, sp);
    emitGroupAddrs(b, params.groupSize(scope), syncBase, 128, dataBase);
    b.movi(rIter, 0);

    Label loop = b.here();
    // ticket = fetch-and-add(ticket counter)
    b.atom(rMyTicket, AtomicOpcode::Add, rSyncAddr, 0, rOne, 0,
           /*acquire=*/true);
    // wait until now-serving == ticket
    emitWaitEq(b, sp, rSyncAddr, 64, rMyTicket);
    emitCriticalSection(b, params);
    // now-serving++ hands the lock to the next ticket holder
    b.atom(rAtomResult, AtomicOpcode::Add, rSyncAddr, 64, rOne, 0,
           /*acquire=*/false, /*release=*/true);
    emitLoopTail(b, params, loop);

    b.bind(l_end);
    b.bar();
    b.halt();
    return finishKernel(b, abbrev(), params.numWgs, params.wiPerWg,
                        params.wgsPerGroup, 16, 1024);
}

bool
FaMutexWorkload::validate(const mem::BackingStore &store,
                          const WorkloadParams &params,
                          std::string &error) const
{
    unsigned groups = params.numGroups(scope);
    std::uint64_t expected =
        std::uint64_t(params.groupSize(scope)) * params.iters;
    if (!checkGroupCounters(store, dataBase, groups, expected, error,
                            "counter")) {
        return false;
    }
    for (unsigned g = 0; g < groups; ++g) {
        std::int64_t tickets = store.read(syncBase + g * 128, 8);
        std::int64_t serving = store.read(syncBase + g * 128 + 64, 8);
        if (tickets != static_cast<std::int64_t>(expected) ||
            serving != static_cast<std::int64_t>(expected)) {
            error = "ticket state group " + std::to_string(g) +
                    ": tickets " + std::to_string(tickets) +
                    ", serving " + std::to_string(serving);
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// SleepMutex (decentralized ticket lock, Figure 10)
// ---------------------------------------------------------------------

std::string
SleepMutexWorkload::name() const
{
    return "SleepMutex";
}

std::string
SleepMutexWorkload::abbrev() const
{
    return scope == Scope::Global ? "SLM_G" : "SLM_L";
}

Table2Row
SleepMutexWorkload::characteristics() const
{
    Table2Row row;
    row.abbrev = abbrev();
    row.description = "Decentralized ticket lock";
    row.granularity = "n";
    row.numSyncVars = "G";
    row.condsPerVar = "1";
    row.waitersPerCond = "1";
    row.updatesUntilMet = "1";
    return row;
}

isa::Kernel
SleepMutexWorkload::build(core::GpuSystem &system,
                          const WorkloadParams &params) const
{
    unsigned groups = params.numGroups(scope);
    unsigned members = params.groupSize(scope);
    unsigned slots = members * params.iters + 1;
    queueStride = std::uint64_t(slots) * 64;

    tailBase = system.allocate(groups * 64ULL);
    queueBase = system.allocate(groups * queueStride);
    dataBase = system.allocate(groups * 64ULL);

    // Slot 0 of every group's queue starts unlocked.
    for (unsigned g = 0; g < groups; ++g)
        system.memory().write(queueBase + g * queueStride, 1, 8);

    StyleParams sp{params.style, params.backoffMaxCycles, false};

    KernelBuilder b;
    Label l_end = b.label();
    b.bnz(isa::rWfId, l_end);
    emitSyncProlog(b, sp);
    emitGroupAddrs(b, members, tailBase, 64, dataBase);
    // rScratchC = this group's queue base
    b.muli(rScratchB, rGroup,
           static_cast<std::int64_t>(queueStride));
    b.movi(rScratchC, static_cast<std::int64_t>(queueBase));
    b.add(rScratchC, rScratchC, rScratchB);
    b.movi(rConst, -1);
    b.movi(rScratchB, 64);  // queue-slot stride operand
    b.movi(rIter, 0);

    Label loop = b.here();
    // my slot = fetch-and-add(tail, 64) + queue base
    b.atom(rMyTicket, AtomicOpcode::Add, rSyncAddr, 0, rScratchB, 0,
           /*acquire=*/true);
    b.add(rMyTicket, rMyTicket, rScratchC);
    // wait for my slot to be unlocked (== 1)
    emitWaitEq(b, sp, rMyTicket, 0, rOne);
    emitCriticalSection(b, params);
    // retire my slot and unlock my successor's
    b.atom(rAtomResult, AtomicOpcode::Exch, rMyTicket, 0, rConst);
    b.atom(rAtomResult, AtomicOpcode::Exch, rMyTicket, 64, rOne, 0,
           /*acquire=*/false, /*release=*/true);
    emitLoopTail(b, params, loop);

    b.bind(l_end);
    b.bar();
    b.halt();
    return finishKernel(b, abbrev(), params.numWgs, params.wiPerWg,
                        params.wgsPerGroup, 18, 1024);
}

bool
SleepMutexWorkload::validate(const mem::BackingStore &store,
                             const WorkloadParams &params,
                             std::string &error) const
{
    unsigned groups = params.numGroups(scope);
    unsigned members = params.groupSize(scope);
    std::uint64_t acquisitions = std::uint64_t(members) * params.iters;
    if (!checkGroupCounters(store, dataBase, groups, acquisitions,
                            error, "counter")) {
        return false;
    }
    for (unsigned g = 0; g < groups; ++g) {
        std::int64_t tail = store.read(tailBase + g * 64, 8);
        if (tail != static_cast<std::int64_t>(acquisitions * 64)) {
            error = "tail group " + std::to_string(g) + ": " +
                    std::to_string(tail);
            return false;
        }
        std::int64_t last = store.read(
            queueBase + g * queueStride + acquisitions * 64, 8);
        if (last != 1) {
            error = "final queue slot group " + std::to_string(g) +
                    " not unlocked";
            return false;
        }
    }
    return true;
}

} // namespace ifp::workloads
