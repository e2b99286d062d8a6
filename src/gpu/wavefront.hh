/**
 * @file
 * Wavefront state: registers, program counter and scheduling status.
 *
 * Execution semantics live in ComputeUnit::executeInstr; the Wavefront
 * is a passive state container plus the small state machine that its
 * CU drives (memory responses and resumes arrive through the CU too).
 */

#ifndef IFP_GPU_WAVEFRONT_HH
#define IFP_GPU_WAVEFRONT_HH

#include <array>
#include <cstdint>

#include "isa/kernel.hh"
#include "sim/types.hh"

namespace ifp::gpu {

class ComputeUnit;
class WorkGroup;

/** Scheduling status of one wavefront. */
enum class WfState
{
    Ready,        //!< can issue an instruction
    Busy,         //!< occupying its SIMD (valu / LDS)
    Sleeping,     //!< executing s_sleep
    WaitMem,      //!< memory request outstanding
    WaitBarrier,  //!< arrived at a WG barrier
    WaitSync,     //!< waiting on a synchronization condition
    Done,         //!< executed halt
};

/** One wavefront of a work-group. */
class Wavefront
{
  public:
    Wavefront(WorkGroup *parent, unsigned id_in_wg);

    /// @name Identity
    /// @{
    WorkGroup *wg;
    unsigned idInWg;
    /// @}

    /// @name Architectural state
    /// @{
    std::array<std::int64_t, isa::numRegs> regs{};
    std::size_t pc = 0;
    /// @}

    /// @name Scheduling state
    /// @{
    /** Written only by the hosting ComputeUnit (setWfState). */
    WfState state() const { return _state; }
    /**
     * Bumped on every transition out of a waiting state; wake/rescue
     * events capture the epoch and become no-ops when stale.
     */
    std::uint64_t waitEpoch = 0;
    /// @}

    /// @name Statistics
    /// @{
    std::uint64_t instructionsExecuted = 0;
    std::uint64_t atomicsExecuted = 0;
    /// @}

    /** Initialize registers per the launch ABI. */
    void initRegs(const isa::Kernel &kernel, int wg_id);

    /** Read a register. */
    std::int64_t
    reg(isa::Reg r) const
    {
        return regs[r];
    }

    /** Write a register. */
    void
    setReg(isa::Reg r, std::int64_t value)
    {
        regs[r] = value;
    }

  private:
    // The CU keeps a per-SIMD mask of Ready wavefronts, indexed by
    // list position, in step with _state; only it writes these.
    friend class ComputeUnit;

    WfState _state = WfState::Ready;
    unsigned simdSlot = 0;   //!< SIMD index within the CU when resident
    unsigned simdPos = 0;    //!< position in that SIMD's list
};

} // namespace ifp::gpu

#endif // IFP_GPU_WAVEFRONT_HH
