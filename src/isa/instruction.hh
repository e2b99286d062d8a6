/**
 * @file
 * The simulator's miniature GPU ISA.
 *
 * Workloads (the HeteroSync suite and the example kernels) are written
 * against this ISA through the KernelBuilder assembler. Execution is
 * modeled at wavefront granularity: one instruction stream per
 * wavefront, with per-lane vector work represented by the `Valu`
 * occupancy instruction. This matches the structure of the HeteroSync
 * kernels, where a master lane performs all synchronization.
 *
 * Synchronization instructions:
 *  - Atom      : regular atomic performed at the L2
 *  - AtomWait  : *waiting atomic* (the paper's new instruction family);
 *                carries an expected value, and on failure the WG
 *                enters a waiting state with no window of vulnerability
 *  - ArmWait   : wait-instruction (MonR/MonRS styles); arms the monitor
 *                *after* the preceding check — exposing the paper's
 *                window-of-vulnerability race
 *  - SleepR    : s_sleep-style fixed-duration wavefront sleep
 *  - Bar       : intra-WG barrier (__syncthreads)
 */

#ifndef IFP_ISA_INSTRUCTION_HH
#define IFP_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/atomic_op.hh"
#include "sim/types.hh"

namespace ifp::isa {

/** Number of general-purpose registers per wavefront. */
constexpr unsigned numRegs = 32;

/** Register index. */
using Reg = std::uint8_t;

/** Instruction opcodes. */
enum class Opcode : std::uint8_t
{
    Nop,
    Movi,    //!< dst = imm
    Mov,     //!< dst = r[src0]
    Add,     //!< dst = r[src0] + (useImm ? imm : r[src1])
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    CmpEq,   //!< dst = (r[src0] == rhs) ? 1 : 0
    CmpNe,
    CmpLt,   //!< signed
    CmpLe,
    Bz,      //!< if (r[src0] == 0) pc = imm
    Bnz,     //!< if (r[src0] != 0) pc = imm
    Br,      //!< pc = imm
    Ld,      //!< dst = mem[r[src0] + imm]           (global, 8 B)
    St,      //!< mem[r[src0] + imm] = r[src1]       (global, 8 B)
    LdLds,   //!< dst = lds[r[src0] + imm]
    StLds,   //!< lds[r[src0] + imm] = r[src1]
    Atom,    //!< dst = atomic(aop, r[src0]+imm, r[src1], cas: r[src2])
    AtomWait,//!< waiting atomic; expected value in r[src2]
    ArmWait, //!< arm monitor on (r[src0]+imm, expected r[src1])
    SleepR,  //!< sleep for r[src0] cycles (s_sleep)
    Valu,    //!< occupy the SIMD for imm cycles (per-lane work)
    Bar,     //!< work-group barrier
    Halt,    //!< wavefront terminates
};

/** One decoded instruction. */
struct Instr
{
    Opcode op = Opcode::Nop;
    Reg dst = 0;
    Reg src0 = 0;
    Reg src1 = 0;
    Reg src2 = 0;
    bool useImm = false;      //!< ALU: replace r[src1] with imm
    std::int64_t imm = 0;     //!< immediate / offset / branch target
    mem::AtomicOpcode aop = mem::AtomicOpcode::Load;
    bool acquire = false;     //!< memory-order acquire (atomics)
    bool release = false;     //!< memory-order release (atomics)
};

/** True for instructions that access global memory. */
bool accessesGlobalMemory(const Instr &instr);

/** True for branch instructions. */
bool isBranch(const Instr &instr);

/**
 * Role of an instruction in a countdown, the software delay loop
 * `L: subi r, r, 1; bnz r, L` (the SPMBO backoff and the barriers'
 * startup skew).
 */
enum class CountdownRole : std::uint8_t
{
    None,
    Sub,     //!< the subi, which the loop's bnz targets
    Branch,  //!< the bnz
};

/**
 * True when @p code[sub] and the instruction after it are the
 * countdown `subi r, r, 1; bnz r, sub`.
 */
inline bool
isCountdownPair(const std::vector<Instr> &code, std::size_t sub)
{
    const Instr &s = code[sub];
    const Instr &b = code[sub + 1];
    return s.op == Opcode::Sub && s.useImm && s.imm == 1 &&
           s.dst == s.src0 && b.op == Opcode::Bnz && b.src0 == s.dst &&
           b.imm == static_cast<std::int64_t>(sub);
}

/** The CountdownRole of @p code[pc], read from it and its neighbour. */
inline CountdownRole
countdownRole(const std::vector<Instr> &code, std::size_t pc)
{
    const Opcode op = code[pc].op;
    if (op == Opcode::Sub && pc + 1 < code.size() &&
        isCountdownPair(code, pc))
        return CountdownRole::Sub;
    if (op == Opcode::Bnz && pc > 0 && isCountdownPair(code, pc - 1))
        return CountdownRole::Branch;
    return CountdownRole::None;
}

/** Render one instruction as assembly-like text. */
std::string disassemble(const Instr &instr);

/** Mnemonic for an opcode. */
std::string opcodeName(Opcode op);

} // namespace ifp::isa

#endif // IFP_ISA_INSTRUCTION_HH
