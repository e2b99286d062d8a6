/**
 * @file
 * Style-parameterized synchronization code emitters.
 *
 * The same benchmark compiles into four waiting styles (Table of
 * core/policy.hh): busy spinning, software exponential backoff with
 * s_sleep, check + wait-instruction (which reproduces Figure 10's
 * window-of-vulnerability pattern), and waiting atomics (the paper's
 * new instruction family, Figure 10 bottom).
 *
 * Register conventions used by the emitters (callers must respect):
 *   r0        always zero
 *   r16       constant 1
 *   r17       current backoff (SleepBackoff style, clobbered)
 *   r18       maximum backoff (SleepBackoff style, preloaded)
 *   r22       atomic result (clobbered)
 *   r24..r25  emitter scratch (clobbered)
 */

#ifndef IFP_WORKLOADS_SYNC_EMITTERS_HH
#define IFP_WORKLOADS_SYNC_EMITTERS_HH

#include <string>

#include "core/policy.hh"
#include "isa/builder.hh"
#include "isa/kernel.hh"

namespace ifp::workloads {

/// @name Emitter register conventions
/// @{
constexpr isa::Reg rOne = 16;
constexpr isa::Reg rBackoff = 17;
constexpr isa::Reg rBackoffMax = 18;
constexpr isa::Reg rIter = 19;
constexpr isa::Reg rSyncAddr = 20;
constexpr isa::Reg rDataAddr = 21;
constexpr isa::Reg rAtomResult = 22;
constexpr isa::Reg rDataVal = 23;
constexpr isa::Reg rTmp0 = 24;
constexpr isa::Reg rTmp1 = 25;
/// @}

/** Parameters shared by the emitters. */
struct StyleParams
{
    core::SyncStyle style = core::SyncStyle::Busy;
    std::int64_t backoffMax = core::defaultSleepMaxBackoffCycles;
    /** SPMBO: software delay-loop backoff instead of s_sleep. */
    bool softwareBackoff = false;
};

/**
 * Emit the per-kernel prologue the emitters rely on (loads the
 * constant registers). Call once before any other emitter.
 */
void emitSyncProlog(isa::KernelBuilder &b, const StyleParams &sp);

/**
 * Acquire a test-and-set lock at [addr_reg + offset] (0 = free,
 * 1 = held). Clobbers rAtomResult, rTmp0, rBackoff.
 */
void emitTasAcquire(isa::KernelBuilder &b, const StyleParams &sp,
                    isa::Reg addr_reg, std::int64_t offset = 0);

/** Release a test-and-set lock (store 0 with release semantics). */
void emitTasRelease(isa::KernelBuilder &b, isa::Reg addr_reg,
                    std::int64_t offset = 0);

/**
 * Wait until the value at [addr_reg + offset] equals r[expected_reg]
 * (ticket locks, barrier flags). Clobbers rAtomResult, rTmp0,
 * rBackoff.
 */
void emitWaitEq(isa::KernelBuilder &b, const StyleParams &sp,
                isa::Reg addr_reg, std::int64_t offset,
                isa::Reg expected_reg);

/**
 * Value-predicate wait on a per-slot sequence word (the queue
 * family): wait until [addr_reg + offset] equals r[expected_reg].
 *
 * Contract: the expected value must be PERSISTENT — once the slot's
 * sequence reaches it, it stays there until the waiting party itself
 * advances it (the bounded-MPMC slot protocol: producer of ticket t
 * waits seq == t, consumer waits seq == t+1, each advances it after
 * acting). A sequence that can run PAST the expected value would
 * livelock the WaitAtomic style, whose hardware re-execute loop never
 * returns to software for a re-check. Clobbers rAtomResult, rTmp0,
 * rBackoff.
 */
void emitWaitSeqEq(isa::KernelBuilder &b, const StyleParams &sp,
                   isa::Reg addr_reg, std::int64_t offset,
                   isa::Reg expected_reg);

/**
 * Ceiling-counter wait: wait until the monotonic counter at
 * [addr_reg + offset] reaches r[target_reg] (work-queue drain:
 * done == totalTasks).
 *
 * Contract: the counter must never EXCEED the target (the target is
 * its terminal value). The polling styles re-check with >= so they
 * tolerate coarse schedules; the WaitAtomic style waits on equality
 * with the terminal value, which is only safe because the counter
 * stops there. Clobbers rAtomResult, rTmp0, rBackoff.
 */
void emitWaitCounterReach(isa::KernelBuilder &b, const StyleParams &sp,
                          isa::Reg addr_reg, std::int64_t offset,
                          isa::Reg target_reg);

/**
 * The descriptor of the kernel @p b holds, with @p b's lint
 * suppressions: @p num_wgs WGs of @p wi_per_wg work-items, at most
 * @p max_wgs_per_cu of them on one CU, @p vgprs VGPRs per work-item
 * and @p lds_bytes of LDS per WG. Every other field keeps
 * isa::Kernel's default.
 */
isa::Kernel finishKernel(isa::KernelBuilder &b, std::string name,
                         unsigned num_wgs, unsigned wi_per_wg,
                         unsigned max_wgs_per_cu, unsigned vgprs,
                         unsigned lds_bytes);

} // namespace ifp::workloads

#endif // IFP_WORKLOADS_SYNC_EMITTERS_HH
