/**
 * @file
 * Abstract interpretation over a kernel Cfg.
 *
 * Three forward dataflow analyses share one fixpoint:
 *
 *  - **Interval propagation**: every register holds a signed interval
 *    [lo, hi] (INT64_MIN / INT64_MAX mark unbounded ends). Entry values
 *    come from the launch context — the register conventions r0 = 0,
 *    r1 = [0, numWgs-1], r2 = [0, wfPerWg-1], r3/r4 constants and the
 *    kernel arguments in r8.. — so buffer base addresses materialize as
 *    constants and per-WG addresses as disjoint bounded intervals.
 *  - **May-defined bits**: which registers have been written on at
 *    least one path (the convention registers and argument registers
 *    count as defined at entry). Reads of never-defined registers feed
 *    the use-before-def diagnostic.
 *  - **Divergence taint**: r2 (the wavefront id) and every value loaded
 *    from memory (Ld/LdLds/Atom/AtomWait results) are divergent across
 *    the wavefronts of one WG; taint propagates through ALU ops. A
 *    branch on a tainted register is a divergent branch.
 *
 * Reaching definitions are computed alongside (per def site, per pc)
 * for the window-of-vulnerability pass's same-abstract-address query.
 *
 * Joins widen to the unbounded sentinel after a few iterations, so the
 * fixpoint terminates on any loop structure.
 */

#ifndef IFP_ANALYSIS_DATAFLOW_HH
#define IFP_ANALYSIS_DATAFLOW_HH

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/cfg.hh"
#include "isa/instruction.hh"

namespace ifp::analysis {

/** Launch-time facts the analyses need (no dependency on core/). */
struct LaunchContext
{
    unsigned numWgs = 1;          //!< grid size (r3, range of r1)
    unsigned wavefrontsPerWg = 1; //!< r4, range of r2
    std::vector<std::int64_t> args;  //!< kernel args, loaded into r8..

    /**
     * Concurrently resident WGs a non-yielding (Baseline) policy can
     * sustain: min(numWgs, CUs * per-CU occupancy). Used by the static
     * progress check (paper Figure 1).
     */
    unsigned maxResidentWgs = 1;

    /**
     * When >= 0, analyze the kernel from the viewpoint of this one
     * work-group: r1 becomes the constant pinnedWg instead of the
     * whole [0, numWgs-1] range, so per-WG addresses (flag arrays
     * indexed by wg id) materialize as exact constants. This is how
     * the interference analysis gets per-WG footprints out of the
     * shared interval dataflow.
     */
    int pinnedWg = -1;
};

/** A signed interval; INT64_MIN / INT64_MAX ends mean unbounded. */
struct Interval
{
    std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    std::int64_t hi = std::numeric_limits<std::int64_t>::max();

    static Interval top() { return {}; }
    static Interval constant(std::int64_t v) { return {v, v}; }
    static Interval range(std::int64_t lo, std::int64_t hi)
    {
        return {lo, hi};
    }

    bool isConst() const { return lo == hi; }
    /** Both ends finite (not the unbounded sentinels). */
    bool bounded() const;
    bool operator==(const Interval &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
    bool operator!=(const Interval &o) const { return !(*this == o); }

    /** True when the two intervals can describe the same value. */
    bool overlaps(const Interval &o) const
    {
        return lo <= o.hi && o.lo <= hi;
    }

    Interval join(const Interval &o) const;
};

/** Register environment at one program point. */
struct AbstractState
{
    std::array<Interval, isa::numRegs> regs;
    /** Written on some path (or defined by convention at entry). */
    std::array<bool, isa::numRegs> defined{};
    /** May differ across wavefronts of one WG. */
    std::array<bool, isa::numRegs> divergent{};
};

/** Static read/write sets per the interpreter in compute_unit.cc. */
struct InstrEffects
{
    /** Registers @p instr reads, in operand order. */
    static std::vector<isa::Reg> reads(const isa::Instr &instr);
    /** True when @p instr writes its dst register. */
    static bool writesDst(const isa::Instr &instr);
    /** True for Ld/St/Atom/AtomWait/ArmWait (addr = r[src0] + imm). */
    static bool hasGlobalAddress(const isa::Instr &instr);
    /** True for instructions a WG can block on a condition with. */
    static bool isWaitOp(const isa::Instr &instr);
};

/** Fixpoint dataflow results for one kernel under one launch. */
class Dataflow
{
  public:
    Dataflow(const Cfg &cfg, const LaunchContext &launch);

    const Cfg &cfg() const { return graph; }
    const LaunchContext &launch() const { return ctx; }

    /** Interval of r[@p reg] just before @p pc. */
    Interval value(std::size_t pc, isa::Reg reg) const
    {
        return states[pc].regs[reg];
    }

    /** Abstract global address r[src0] + imm of the mem op at @p pc. */
    Interval addressOf(std::size_t pc) const;

    bool divergent(std::size_t pc, isa::Reg reg) const
    {
        return states[pc].divergent[reg];
    }

    bool mayBeDefined(std::size_t pc, isa::Reg reg) const
    {
        return states[pc].defined[reg];
    }

    /**
     * Definition sites of @p reg reaching @p pc, as sorted def pcs;
     * -1 denotes the entry (launch-initialized) definition.
     */
    std::vector<int> reachingDefs(std::size_t pc, isa::Reg reg) const;

  private:
    AbstractState transfer(const AbstractState &in,
                           const isa::Instr &instr) const;
    void runFixpoint();
    void runReachingDefs();

    const Cfg &graph;
    LaunchContext ctx;
    AbstractState entry;
    std::vector<AbstractState> states;     //!< per pc, before execution

    // Reaching definitions: def sites are (pc, reg) pairs; bitvector
    // per pc over the site indices (small kernels, plain bool works).
    struct DefSite
    {
        int pc;  //!< -1 for the entry definition
        isa::Reg reg;
    };
    std::vector<DefSite> defSites;
    std::vector<std::vector<bool>> reachIn;  //!< per pc
};

} // namespace ifp::analysis

#endif // IFP_ANALYSIS_DATAFLOW_HH
