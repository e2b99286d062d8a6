#include "analysis/cfg.hh"

#include <algorithm>
#include <deque>

namespace ifp::analysis {

using isa::Opcode;

namespace {

bool
endsBlock(const isa::Instr &instr)
{
    return isBranch(instr) || instr.op == Opcode::Halt;
}

bool
targetInRange(const isa::Instr &instr, std::size_t code_size)
{
    return instr.imm >= 0 &&
           instr.imm < static_cast<std::int64_t>(code_size);
}

} // anonymous namespace

bool
Loop::contains(int block) const
{
    return std::binary_search(blocks.begin(), blocks.end(), block);
}

Cfg::Cfg(const std::vector<isa::Instr> &code) : instrs(code)
{
    buildBlocks();
    buildEdges();
    computeReachability();
    computeDominators();
    computePostDominators();
    findLoops();
}

void
Cfg::buildBlocks()
{
    const std::size_t n = instrs.size();
    blockIndex.assign(n, -1);
    if (n == 0)
        return;

    std::vector<bool> leader(n, false);
    leader[0] = true;
    for (std::size_t pc = 0; pc < n; ++pc) {
        const isa::Instr &in = instrs[pc];
        if (isBranch(in) && targetInRange(in, n))
            leader[static_cast<std::size_t>(in.imm)] = true;
        if (endsBlock(in) && pc + 1 < n)
            leader[pc + 1] = true;
    }

    for (std::size_t pc = 0; pc < n; ++pc) {
        if (leader[pc]) {
            BasicBlock bb;
            bb.id = static_cast<int>(bbs.size());
            bb.first = pc;
            bbs.push_back(bb);
        }
        blockIndex[pc] = static_cast<int>(bbs.size()) - 1;
        bbs.back().last = pc;
    }
}

void
Cfg::buildEdges()
{
    const std::size_t n = instrs.size();
    for (BasicBlock &bb : bbs) {
        const isa::Instr &in = instrs[bb.last];
        auto addSucc = [&](int succ) {
            if (std::find(bb.succs.begin(), bb.succs.end(), succ) ==
                bb.succs.end()) {
                bb.succs.push_back(succ);
            }
        };

        if (in.op == Opcode::Halt)
            continue;
        if (isBranch(in)) {
            // Out-of-range targets get no edge; the structural pass
            // reports them.
            if (targetInRange(in, n))
                addSucc(blockIndex[static_cast<std::size_t>(in.imm)]);
            if (in.op == Opcode::Br)
                continue;
        }
        if (bb.last + 1 < n)
            addSucc(blockIndex[bb.last + 1]);
        else
            bb.fallsOffEnd = true;
    }
    for (const BasicBlock &bb : bbs) {
        for (int succ : bb.succs)
            bbs[succ].preds.push_back(bb.id);
    }
}

void
Cfg::computeReachability()
{
    if (bbs.empty())
        return;
    // Iterative DFS producing reverse postorder.
    std::vector<int> state(bbs.size(), 0);  // 0 new, 1 open, 2 done
    std::vector<int> postorder;
    std::vector<std::pair<int, std::size_t>> stack;
    stack.emplace_back(0, 0);
    state[0] = 1;
    while (!stack.empty()) {
        auto &[id, next] = stack.back();
        if (next < bbs[id].succs.size()) {
            int succ = bbs[id].succs[next++];
            if (state[succ] == 0) {
                state[succ] = 1;
                stack.emplace_back(succ, 0);
            }
        } else {
            state[id] = 2;
            postorder.push_back(id);
            stack.pop_back();
        }
    }
    rpo.assign(postorder.rbegin(), postorder.rend());
    for (int id : rpo)
        bbs[id].reachable = true;
}

void
Cfg::computeDominators()
{
    // Cooper/Harvey/Kennedy iterative idom algorithm over the RPO.
    idoms.assign(bbs.size(), -1);
    if (rpo.empty())
        return;
    std::vector<int> rpoNumber(bbs.size(), -1);
    for (std::size_t i = 0; i < rpo.size(); ++i)
        rpoNumber[rpo[i]] = static_cast<int>(i);

    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (rpoNumber[a] > rpoNumber[b])
                a = idoms[a];
            while (rpoNumber[b] > rpoNumber[a])
                b = idoms[b];
        }
        return a;
    };

    idoms[rpo[0]] = rpo[0];
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 1; i < rpo.size(); ++i) {
            int id = rpo[i];
            int new_idom = -1;
            for (int pred : bbs[id].preds) {
                if (!bbs[pred].reachable || idoms[pred] < 0)
                    continue;
                new_idom = new_idom < 0 ? pred
                                        : intersect(pred, new_idom);
            }
            if (new_idom >= 0 && idoms[id] != new_idom) {
                idoms[id] = new_idom;
                changed = true;
            }
        }
    }
    idoms[rpo[0]] = -1;  // entry has no idom
}

bool
Cfg::dominates(int a, int b) const
{
    for (int walk = b; walk >= 0; walk = idoms[walk]) {
        if (walk == a)
            return true;
    }
    return false;
}

void
Cfg::computePostDominators()
{
    // Same algorithm on the reverse graph, against a virtual exit
    // (id = numBlocks) fed by Halt blocks, fall-off-the-end blocks
    // and dead ends (dropped out-of-range targets).
    const int n = static_cast<int>(bbs.size());
    const int exitId = n;
    ipdoms.assign(bbs.size(), -1);
    if (bbs.empty())
        return;

    std::vector<std::vector<int>> rsuccs(n + 1), rpreds(n + 1);
    for (const BasicBlock &bb : bbs) {
        if (!bb.reachable)
            continue;
        std::vector<int> succs = bb.succs;
        if (succs.empty() || bb.fallsOffEnd)
            succs.push_back(exitId);
        for (int succ : succs) {
            rsuccs[succ].push_back(bb.id);  // reverse edge succ -> bb
            rpreds[bb.id].push_back(succ);
        }
    }

    // RPO of the reverse graph from the virtual exit.
    std::vector<int> state(n + 1, 0);
    std::vector<int> postorder;
    std::vector<std::pair<int, std::size_t>> stack;
    stack.emplace_back(exitId, 0);
    state[exitId] = 1;
    while (!stack.empty()) {
        auto &[id, next] = stack.back();
        if (next < rsuccs[id].size()) {
            int succ = rsuccs[id][next++];
            if (state[succ] == 0) {
                state[succ] = 1;
                stack.emplace_back(succ, 0);
            }
        } else {
            state[id] = 2;
            postorder.push_back(id);
            stack.pop_back();
        }
    }
    std::vector<int> order(postorder.rbegin(), postorder.rend());
    std::vector<int> number(n + 1, -1);
    for (std::size_t i = 0; i < order.size(); ++i)
        number[order[i]] = static_cast<int>(i);

    std::vector<int> pd(n + 1, -1);
    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (number[a] > number[b])
                a = pd[a];
            while (number[b] > number[a])
                b = pd[b];
        }
        return a;
    };

    pd[exitId] = exitId;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 1; i < order.size(); ++i) {
            int id = order[i];
            int new_pd = -1;
            for (int pred : rpreds[id]) {
                if (number[pred] < 0 || pd[pred] < 0)
                    continue;
                new_pd = new_pd < 0 ? pred : intersect(pred, new_pd);
            }
            if (new_pd >= 0 && pd[id] != new_pd) {
                pd[id] = new_pd;
                changed = true;
            }
        }
    }
    for (int id = 0; id < n; ++id)
        ipdoms[id] = pd[id] == exitId ? exitId : pd[id];
}

void
Cfg::findLoops()
{
    for (const BasicBlock &bb : bbs) {
        if (!bb.reachable)
            continue;
        for (int succ : bb.succs) {
            if (!dominates(succ, bb.id))
                continue;
            Loop loop;
            loop.head = succ;
            loop.backEdgeSrc = bb.id;
            // Natural loop: head plus everything reaching the back
            // edge source without passing through the head.
            std::vector<bool> in(bbs.size(), false);
            in[succ] = true;
            std::deque<int> work;
            if (!in[bb.id]) {
                in[bb.id] = true;
                work.push_back(bb.id);
            }
            while (!work.empty()) {
                int id = work.front();
                work.pop_front();
                for (int pred : bbs[id].preds) {
                    if (!in[pred]) {
                        in[pred] = true;
                        work.push_back(pred);
                    }
                }
            }
            for (std::size_t i = 0; i < bbs.size(); ++i) {
                if (in[i])
                    loop.blocks.push_back(static_cast<int>(i));
            }
            loopList.push_back(std::move(loop));
        }
    }
    // Outermost (largest) first, then by header for determinism.
    std::sort(loopList.begin(), loopList.end(),
              [](const Loop &a, const Loop &b) {
                  if (a.blocks.size() != b.blocks.size())
                      return a.blocks.size() > b.blocks.size();
                  return a.head < b.head;
              });
}

std::vector<bool>
Cfg::reachableFrom(int from, int barrier, bool follow_back_edges) const
{
    std::vector<bool> seen(bbs.size(), false);
    if (from < 0 || from >= static_cast<int>(bbs.size()) ||
        from == barrier) {
        return seen;
    }
    std::deque<int> work{from};
    seen[from] = true;
    while (!work.empty()) {
        int id = work.front();
        work.pop_front();
        for (int succ : bbs[id].succs) {
            if (succ == barrier || seen[succ])
                continue;
            if (!follow_back_edges && isBackEdge(id, succ))
                continue;
            seen[succ] = true;
            work.push_back(succ);
        }
    }
    return seen;
}

bool
Cfg::isBackEdge(int src, int dst) const
{
    return dominates(dst, src);
}

int
Cfg::blockOf(std::size_t pc) const
{
    if (pc >= blockIndex.size())
        return -1;
    return blockIndex[pc];
}

} // namespace ifp::analysis
