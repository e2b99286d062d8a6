/**
 * @file
 * Control-flow graph over isa::Kernel code.
 *
 * Basic blocks are built from the branch structure (Bz/Bnz/Br leaders
 * and targets); on top of them the Cfg provides reachability, reverse
 * postorder, dominators, postdominators (against a virtual exit that
 * every Halt block and every fall-off-the-end block feeds), and
 * natural loops found from back edges. Kernels are tiny (tens to a
 * few hundred instructions), so everything uses the simple iterative
 * algorithms.
 *
 * Out-of-range branch targets are tolerated: the edge is dropped so
 * the structural verifier can report it as a diagnostic instead of
 * the analysis crashing.
 */

#ifndef IFP_ANALYSIS_CFG_HH
#define IFP_ANALYSIS_CFG_HH

#include <cstddef>
#include <vector>

#include "isa/kernel.hh"

namespace ifp::analysis {

/** One basic block: the half-open pc range [first, last]. */
struct BasicBlock
{
    int id = 0;
    std::size_t first = 0;  //!< pc of the first instruction
    std::size_t last = 0;   //!< pc of the last instruction (inclusive)
    std::vector<int> succs;
    std::vector<int> preds;
    bool reachable = false;
    /** Control flow can leave the last pc past the end of the code. */
    bool fallsOffEnd = false;
};

/** A natural loop discovered from a back edge. */
struct Loop
{
    int head = 0;               //!< loop header block
    int backEdgeSrc = 0;        //!< block whose edge to head closes it
    std::vector<int> blocks;    //!< all member blocks (sorted)

    bool contains(int block) const;
};

/** The control-flow graph of one kernel. */
class Cfg
{
  public:
    explicit Cfg(const std::vector<isa::Instr> &code);

    const std::vector<isa::Instr> &code() const { return instrs; }
    const std::vector<BasicBlock> &blocks() const { return bbs; }
    const BasicBlock &block(int id) const { return bbs[id]; }

    /** Block containing @p pc (-1 when pc is out of range). */
    int blockOf(std::size_t pc) const;

    /** Reachable blocks in reverse postorder from the entry. */
    const std::vector<int> &reversePostorder() const { return rpo; }

    /**
     * Immediate dominator per block; -1 for the entry and for
     * unreachable blocks.
     */
    int idom(int block) const { return idoms[block]; }

    /** True when @p a dominates @p b (reflexive). */
    bool dominates(int a, int b) const;

    /**
     * Immediate postdominator per block; -1 when the block is the
     * virtual exit's only feeder or cannot reach the exit.
     */
    int ipdom(int block) const { return ipdoms[block]; }

    /** Natural loops (one per back edge), outermost first. */
    const std::vector<Loop> &loops() const { return loopList; }

    /**
     * Blocks reachable from @p from following forward edges only,
     * optionally treating @p barrier as removed (pass -1 for none).
     * Used for divergent-region queries (reachable-before-reconverge)
     * and DAG precedes-on-some-path queries.
     */
    std::vector<bool> reachableFrom(int from, int barrier,
                                    bool follow_back_edges) const;

    /** True when the edge src->dst is a back edge (dst dominates src). */
    bool isBackEdge(int src, int dst) const;

  private:
    void buildBlocks();
    void buildEdges();
    void computeReachability();
    void computeDominators();
    void computePostDominators();
    void findLoops();

    std::vector<isa::Instr> instrs;
    std::vector<BasicBlock> bbs;
    std::vector<int> blockIndex;  //!< pc -> block id
    std::vector<int> rpo;
    std::vector<int> idoms;
    std::vector<int> ipdoms;
    std::vector<Loop> loopList;
};

} // namespace ifp::analysis

#endif // IFP_ANALYSIS_CFG_HH
