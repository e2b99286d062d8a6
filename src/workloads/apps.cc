#include "workloads/apps.hh"

#include "sim/logging.hh"
#include "workloads/sync_emitters.hh"

namespace ifp::workloads {

using isa::KernelBuilder;
using isa::Label;
using mem::AtomicOpcode;

namespace {

constexpr isa::Reg rBucket = 28;
constexpr isa::Reg rSrc = 28;
constexpr isa::Reg rDst = 29;
constexpr isa::Reg rLoAddr = 30;
constexpr isa::Reg rHiAddr = 31;
constexpr isa::Reg rScratch = 26;
constexpr isa::Reg rScratch2 = 27;

/**
 * Emit dst = (wgId * mul1 + iter * mul2) % modulus into @p dst.
 * A cheap deterministic mixing function for data-dependent indices.
 */
void
emitMixedIndex(KernelBuilder &b, isa::Reg dst, std::int64_t mul1,
               std::int64_t mul2, unsigned modulus)
{
    b.muli(dst, isa::rWgId, mul1);
    b.muli(rTmp1, rIter, mul2);
    b.add(dst, dst, rTmp1);
    b.remi(dst, dst, static_cast<std::int64_t>(modulus));
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Hash table (HT)
// ---------------------------------------------------------------------

std::string
HashTableWorkload::name() const
{
    return "HashTable";
}

std::string
HashTableWorkload::abbrev() const
{
    return "HT";
}

Table2Row
HashTableWorkload::characteristics() const
{
    Table2Row row;
    row.abbrev = abbrev();
    row.description = "Per-bucket locked hash table (d buckets)";
    row.granularity = "n";
    row.numSyncVars = "d";
    row.condsPerVar = "1";
    row.waitersPerCond = "G/d";
    row.updatesUntilMet = "2";
    return row;
}

isa::Kernel
HashTableWorkload::build(core::GpuSystem &system,
                         const WorkloadParams &params) const
{
    locksBase = system.allocate(buckets * 64ULL);
    countsBase = system.allocate(buckets * 64ULL);

    StyleParams sp{params.style, params.backoffMaxCycles, false};

    KernelBuilder b;
    Label l_end = b.label();
    b.bnz(isa::rWfId, l_end);
    emitSyncProlog(b, sp);
    b.movi(rIter, 0);

    Label loop = b.here();
    // bucket = mix(wgId, iter) % buckets
    emitMixedIndex(b, rBucket, 40503, 2654435761LL, buckets);
    b.muli(rSyncAddr, rBucket, 64);
    b.movi(rTmp1, static_cast<std::int64_t>(locksBase));
    b.add(rSyncAddr, rSyncAddr, rTmp1);
    b.muli(rDataAddr, rBucket, 64);
    b.movi(rTmp1, static_cast<std::int64_t>(countsBase));
    b.add(rDataAddr, rDataAddr, rTmp1);

    emitTasAcquire(b, sp, rSyncAddr);
    b.valu(params.csValuCycles);
    b.ld(rDataVal, rDataAddr);
    b.addi(rDataVal, rDataVal, 1);
    b.st(rDataAddr, rDataVal);
    emitTasRelease(b, rSyncAddr);

    b.addi(rIter, rIter, 1);
    b.cmpLti(rTmp0, rIter, params.iters);
    b.bnz(rTmp0, loop);

    b.bind(l_end);
    b.bar();
    b.halt();
    return finishKernel(b, abbrev(), params.numWgs, params.wiPerWg,
                        params.wgsPerGroup, 22, 1024);
}

bool
HashTableWorkload::validate(const mem::BackingStore &store,
                            const WorkloadParams &params,
                            std::string &error) const
{
    std::int64_t total = 0;
    for (unsigned i = 0; i < buckets; ++i) {
        total += store.read(countsBase + i * 64, 8);
        if (store.read(locksBase + i * 64, 8) != 0) {
            error = "bucket lock " + std::to_string(i) + " left held";
            return false;
        }
    }
    auto expected = static_cast<std::int64_t>(
        std::uint64_t(params.numWgs) * params.iters);
    if (total != expected) {
        error = "inserted " + std::to_string(total) + ", expected " +
                std::to_string(expected);
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Bank accounts (BA)
// ---------------------------------------------------------------------

std::string
BankAccountWorkload::name() const
{
    return "BankAccount";
}

std::string
BankAccountWorkload::abbrev() const
{
    return "BA";
}

Table2Row
BankAccountWorkload::characteristics() const
{
    Table2Row row;
    row.abbrev = abbrev();
    row.description = "Two-lock ordered account transfers (d accts)";
    row.granularity = "n";
    row.numSyncVars = "d";
    row.condsPerVar = "1";
    row.waitersPerCond = "2G/d";
    row.updatesUntilMet = "2";
    return row;
}

isa::Kernel
BankAccountWorkload::build(core::GpuSystem &system,
                           const WorkloadParams &params) const
{
    locksBase = system.allocate(accounts * 64ULL);
    balancesBase = system.allocate(accounts * 64ULL);
    for (unsigned i = 0; i < accounts; ++i)
        system.memory().write(balancesBase + i * 64, initialBalance, 8);

    StyleParams sp{params.style, params.backoffMaxCycles, false};

    KernelBuilder b;
    Label l_end = b.label();
    b.bnz(isa::rWfId, l_end);
    emitSyncProlog(b, sp);
    b.movi(rIter, 0);

    Label loop = b.here();
    // Pick src/dst accounts; force them distinct.
    emitMixedIndex(b, rSrc, 48611, 2654435761LL, accounts);
    emitMixedIndex(b, rDst, 88711, 40503, accounts);
    {
        Label distinct = b.label();
        b.cmpNe(rTmp0, rSrc, rDst);
        b.bnz(rTmp0, distinct);
        b.addi(rDst, rDst, 1);
        b.remi(rDst, rDst, static_cast<std::int64_t>(accounts));
        b.bind(distinct);
    }
    // Ordered locking: lo = min(src, dst), hi = max(src, dst).
    {
        Label src_lo = b.label();
        Label ordered = b.label();
        b.cmpLt(rTmp0, rSrc, rDst);
        b.bnz(rTmp0, src_lo);
        b.mov(rLoAddr, rDst);
        b.mov(rHiAddr, rSrc);
        b.br(ordered);
        b.bind(src_lo);
        b.mov(rLoAddr, rSrc);
        b.mov(rHiAddr, rDst);
        b.bind(ordered);
    }
    b.muli(rLoAddr, rLoAddr, 64);
    b.movi(rTmp1, static_cast<std::int64_t>(locksBase));
    b.add(rLoAddr, rLoAddr, rTmp1);
    b.muli(rHiAddr, rHiAddr, 64);
    b.add(rHiAddr, rHiAddr, rTmp1);

    emitTasAcquire(b, sp, rLoAddr);
    emitTasAcquire(b, sp, rHiAddr);

    // balances[src] -= 1; balances[dst] += 1
    b.muli(rScratch, rSrc, 64);
    b.movi(rTmp1, static_cast<std::int64_t>(balancesBase));
    b.add(rScratch, rScratch, rTmp1);
    b.ld(rDataVal, rScratch);
    b.subi(rDataVal, rDataVal, 1);
    b.st(rScratch, rDataVal);
    b.muli(rScratch2, rDst, 64);
    b.add(rScratch2, rScratch2, rTmp1);
    b.ld(rDataVal, rScratch2);
    b.addi(rDataVal, rDataVal, 1);
    b.st(rScratch2, rDataVal);
    b.valu(params.csValuCycles);

    emitTasRelease(b, rHiAddr);
    emitTasRelease(b, rLoAddr);

    b.addi(rIter, rIter, 1);
    b.cmpLti(rTmp0, rIter, params.iters);
    b.bnz(rTmp0, loop);

    b.bind(l_end);
    b.bar();
    b.halt();
    return finishKernel(b, abbrev(), params.numWgs, params.wiPerWg,
                        params.wgsPerGroup, 26, 1024);
}

bool
BankAccountWorkload::validate(const mem::BackingStore &store,
                              const WorkloadParams &params,
                              std::string &error) const
{
    (void)params;
    std::int64_t total = 0;
    for (unsigned i = 0; i < accounts; ++i) {
        total += store.read(balancesBase + i * 64, 8);
        if (store.read(locksBase + i * 64, 8) != 0) {
            error = "account lock " + std::to_string(i) + " left held";
            return false;
        }
    }
    std::int64_t expected =
        initialBalance * static_cast<std::int64_t>(accounts);
    if (total != expected) {
        error = "total balance " + std::to_string(total) +
                ", expected " + std::to_string(expected);
        return false;
    }
    return true;
}

} // namespace ifp::workloads
