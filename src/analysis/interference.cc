/**
 * @file
 * Implementation of the inter-WG interference analysis: per-WG pinned
 * dataflow footprints, the static wait-for graph and its circular-wait
 * greatest fixpoint, the commutativity oracle, and the text/JSON
 * surfaces behind `ifplint --interference`.
 */

#include "analysis/interference.hh"

#include <algorithm>
#include <ostream>
#include <set>

#include "analysis/passes.hh"
#include "sim/json.hh"

namespace ifp::analysis {

using isa::Opcode;

// ---------------------------------------------------------------------
// AccessList / Footprint
// ---------------------------------------------------------------------

void
AccessList::add(const Interval &addr)
{
    if (!addr.bounded()) {
        unbounded = true;
        return;
    }
    intervals.push_back(addr);
}

void
AccessList::normalize()
{
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval &a, const Interval &b) {
                  return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
              });
    std::vector<Interval> merged;
    for (const Interval &iv : intervals) {
        if (!merged.empty() && iv.lo <= merged.back().hi) {
            merged.back().hi = std::max(merged.back().hi, iv.hi);
        } else {
            merged.push_back(iv);
        }
    }
    intervals = std::move(merged);
}

bool
AccessList::overlaps(const AccessList &o) const
{
    if (empty() || o.empty())
        return false;
    if (unbounded || o.unbounded)
        return true;
    // Both sorted and merged: one linear sweep.
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < intervals.size() && j < o.intervals.size()) {
        if (intervals[i].overlaps(o.intervals[j]))
            return true;
        if (intervals[i].hi < o.intervals[j].hi)
            ++i;
        else
            ++j;
    }
    return false;
}

bool
AccessList::overlapsInterval(const Interval &addr) const
{
    if (empty())
        return false;
    if (unbounded || !addr.bounded())
        return true;
    for (const Interval &iv : intervals) {
        if (iv.overlaps(addr))
            return true;
    }
    return false;
}

bool
Footprint::conflictsWith(const Footprint &o) const
{
    return writes.overlaps(o.reads) || writes.overlaps(o.writes) ||
           o.writes.overlaps(reads);
}

namespace {

/** Fold one global-memory instruction into a footprint. */
void
addAccess(Footprint &fp, const isa::Instr &instr, const Interval &addr,
          bool spin_read)
{
    switch (instr.op) {
      case Opcode::Ld:
        fp.reads.add(addr);
        break;
      case Opcode::St:
        fp.writes.add(addr);
        break;
      case Opcode::Atom:
        fp.reads.add(addr);
        if (instr.aop != mem::AtomicOpcode::Load)
            fp.writes.add(addr);
        break;
      case Opcode::AtomWait:
        fp.reads.add(addr);
        fp.waits.add(addr);
        if (instr.aop != mem::AtomicOpcode::Load)
            fp.writes.add(addr);
        break;
      case Opcode::ArmWait:
        fp.reads.add(addr);
        fp.waits.add(addr);
        break;
      default:
        return;
    }
    if (spin_read)
        fp.waits.add(addr);
}

/** True when the write at @p instr can satisfy a waited condition. */
bool
isNotify(const isa::Instr &instr)
{
    if (instr.op == Opcode::St)
        return true;
    if (instr.op == Opcode::Atom || instr.op == Opcode::AtomWait)
        return instr.aop != mem::AtomicOpcode::Load;
    return false;
}

/**
 * Awaited-value interval of a spin wait: the loop exits through an
 * equality compare between the global read's value and the expected
 * operand. Only the wait-for-equal polarity (exit taken when the
 * compare holds for CmpEq, when it fails for CmpNe) yields an
 * interval; everything else is top (unknown).
 */
Interval
spinExpected(const Dataflow &df, const Cfg &cfg, const SpinWait &sw)
{
    const auto &code = cfg.code();
    const isa::Instr &br = code[sw.branchPc];
    if (br.op != Opcode::Bz && br.op != Opcode::Bnz)
        return Interval::top();
    int target = cfg.blockOf(static_cast<std::size_t>(br.imm));
    if (target < 0)
        return Interval::top();
    bool targetInLoop = sw.loop->contains(target);
    // Bz jumps on false (r == 0): the loop exits on a true compare
    // exactly when the jump target stays inside the loop.
    bool exitOnTrue =
        br.op == Opcode::Bz ? targetInLoop : !targetInLoop;
    for (int d : df.reachingDefs(sw.branchPc, br.src0)) {
        if (d < 0)
            continue;
        const isa::Instr &cmp = code[d];
        if (cmp.op != Opcode::CmpEq && cmp.op != Opcode::CmpNe)
            continue;
        bool waitForEqual = (cmp.op == Opcode::CmpEq) == exitOnTrue;
        if (!waitForEqual)
            continue;
        auto fed_by_read = [&](isa::Reg reg) {
            for (int rd : df.reachingDefs(d, reg)) {
                if (rd == static_cast<int>(sw.readPc))
                    return true;
            }
            return false;
        };
        if (fed_by_read(cmp.src0)) {
            return cmp.useImm ? Interval::constant(cmp.imm)
                              : df.value(d, cmp.src1);
        }
        if (!cmp.useImm && fed_by_read(cmp.src1))
            return df.value(d, cmp.src0);
    }
    return Interval::top();
}

/**
 * Candidate for the stuck set: the waited address is a concrete
 * object and the awaited value provably differs from the launch-time
 * zero initialization (otherwise the wait can satisfy immediately).
 */
bool
candidateStuck(const WaitSite &w)
{
    if (!w.addr.bounded())
        return false;
    return !w.expected.overlaps(Interval::constant(0));
}

/** Every path to @p pc executes the wait at @p w first. */
bool
waitDominates(const Cfg &cfg, const WaitSite &w, std::size_t pc)
{
    int wb = cfg.blockOf(w.pc);
    int nb = cfg.blockOf(pc);
    if (wb < 0 || nb < 0)
        return false;
    if (wb == nb)
        return w.pc < pc;
    return cfg.dominates(wb, nb);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// InterferenceAnalysis
// ---------------------------------------------------------------------

InterferenceAnalysis::InterferenceAnalysis(const isa::Kernel &kernel,
                                           const LaunchContext &launch)
    : graph(kernel.code), ctx(launch)
{
    unboundedPrint.reads.unbounded = true;
    unboundedPrint.writes.unbounded = true;
    unboundedPrint.waits.unbounded = true;

    isCapped = ctx.numWgs > kMaxAnalyzedWgs;
    if (isCapped)
        return;

    std::vector<std::size_t> reachable_pcs;
    for (std::size_t pc = 0; pc < graph.code().size(); ++pc) {
        int blk = graph.blockOf(pc);
        if (blk >= 0 && graph.block(blk).reachable)
            reachable_pcs.push_back(pc);
    }

    for (unsigned wg = 0; wg < ctx.numWgs; ++wg) {
        LaunchContext pinned = ctx;
        pinned.pinnedWg = static_cast<int>(wg);
        flows.push_back(std::make_unique<Dataflow>(graph, pinned));
        const Dataflow &df = *flows.back();
        PassContext pctx{kernel, graph, df};
        std::vector<SpinWait> spins = findSpinWaits(pctx);
        spinPcs.emplace_back();
        for (const SpinWait &sw : spins)
            spinPcs.back().insert(sw.readPc);

        Footprint fp;
        for (std::size_t pc : reachable_pcs) {
            const isa::Instr &instr = graph.code()[pc];
            if (!InstrEffects::hasGlobalAddress(instr))
                continue;
            addAccess(fp, instr, df.addressOf(pc),
                      spinPcs[wg].count(pc) > 0);
        }
        fp.reads.normalize();
        fp.writes.normalize();
        fp.waits.normalize();
        prints.push_back(std::move(fp));

        // Wait sites, in pc order per WG.
        std::vector<WaitSite> wg_waits;
        for (std::size_t pc : reachable_pcs) {
            const isa::Instr &instr = graph.code()[pc];
            if (instr.op == Opcode::AtomWait) {
                wg_waits.push_back({wg, pc, df.addressOf(pc),
                                    df.value(pc, instr.src2), false});
            } else if (instr.op == Opcode::ArmWait) {
                wg_waits.push_back({wg, pc, df.addressOf(pc),
                                    df.value(pc, instr.src1), false});
            }
        }
        for (const SpinWait &sw : spins) {
            wg_waits.push_back({wg, sw.readPc, df.addressOf(sw.readPc),
                                spinExpected(df, graph, sw), true});
        }
        std::sort(wg_waits.begin(), wg_waits.end(),
                  [](const WaitSite &a, const WaitSite &b) {
                      return a.pc < b.pc;
                  });
        waits.insert(waits.end(), wg_waits.begin(), wg_waits.end());

        for (std::size_t pc : reachable_pcs) {
            const isa::Instr &instr = graph.code()[pc];
            if (isNotify(instr))
                notifies.push_back({wg, pc, df.addressOf(pc)});
        }
    }

    buildWaitForGraph();
}

void
InterferenceAnalysis::buildWaitForGraph()
{
    // Greatest fixpoint of "stuck": start from every candidate wait
    // and remove any wait some WG can notify without first passing a
    // wait that is itself still stuck.
    std::vector<char> stuck(waits.size(), 0);
    for (std::size_t i = 0; i < waits.size(); ++i)
        stuck[i] = candidateStuck(waits[i]) ? 1 : 0;

    auto guarded_by_stuck = [&](const NotifySite &n) {
        for (std::size_t j = 0; j < waits.size(); ++j) {
            if (stuck[j] && waits[j].wg == n.wg &&
                waitDominates(graph, waits[j], n.pc)) {
                return true;
            }
        }
        return false;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < waits.size(); ++i) {
            if (!stuck[i])
                continue;
            for (const NotifySite &n : notifies) {
                bool may_overlap = !n.addr.bounded() ||
                                   n.addr.overlaps(waits[i].addr);
                if (!may_overlap)
                    continue;
                if (!guarded_by_stuck(n)) {
                    stuck[i] = 0;
                    changed = true;
                    break;
                }
            }
        }
    }

    // Report edges relative to the *final* stuck set, waiter-major.
    for (std::size_t i = 0; i < waits.size(); ++i) {
        if (!candidateStuck(waits[i]))
            continue;
        for (const NotifySite &n : notifies) {
            bool may_overlap = !n.addr.bounded() ||
                               n.addr.overlaps(waits[i].addr);
            if (!may_overlap || n.wg == waits[i].wg)
                continue;
            edges.push_back({waits[i].wg, n.wg, waits[i].pc, n.pc,
                             guarded_by_stuck(n)});
        }
        if (stuck[i])
            circular.push_back(waits[i]);
    }
}

const Footprint &
InterferenceAnalysis::suffixFootprint(unsigned wg, std::size_t pc) const
{
    int blk = graph.blockOf(pc);
    if (isCapped || wg >= ctx.numWgs || blk < 0)
        return unboundedPrint;
    auto key = std::make_pair(wg, blk);
    auto it = suffixMemo.find(key);
    if (it != suffixMemo.end())
        return it->second;

    std::vector<bool> live = graph.reachableFrom(blk, /*barrier=*/-1,
                                                 /*followBack=*/true);
    const Dataflow &df = *flows[wg];
    Footprint fp;
    for (std::size_t p = 0; p < graph.code().size(); ++p) {
        int b = graph.blockOf(p);
        if (b < 0 || !graph.block(b).reachable || !live[b])
            continue;
        const isa::Instr &instr = graph.code()[p];
        if (!InstrEffects::hasGlobalAddress(instr))
            continue;
        addAccess(fp, instr, df.addressOf(p), spinPcs[wg].count(p) > 0);
    }
    fp.reads.normalize();
    fp.writes.normalize();
    fp.waits.normalize();
    return suffixMemo.emplace(key, std::move(fp)).first->second;
}

bool
InterferenceAnalysis::mayConflict(unsigned a, unsigned b) const
{
    if (isCapped || a == b || a >= ctx.numWgs || b >= ctx.numWgs)
        return true;
    return prints[a].conflictsWith(prints[b]);
}

bool
InterferenceAnalysis::mayConflictFrom(unsigned a, std::size_t pc_a,
                                      unsigned b, std::size_t pc_b) const
{
    if (isCapped || a == b || a >= ctx.numWgs || b >= ctx.numWgs)
        return true;
    return suffixFootprint(a, pc_a)
        .conflictsWith(suffixFootprint(b, pc_b));
}

bool
InterferenceAnalysis::syncAliases(unsigned a, unsigned b) const
{
    if (isCapped || a >= ctx.numWgs || b >= ctx.numWgs)
        return true;
    const Footprint &fa = prints[a];
    const Footprint &fb = prints[b];
    return fa.waits.overlaps(fb.writes) || fa.waits.overlaps(fb.waits) ||
           fb.waits.overlaps(fa.writes);
}

// ---------------------------------------------------------------------
// CommutativityOracle
// ---------------------------------------------------------------------

CommutativityOracle::CommutativityOracle(const isa::Kernel &kernel,
                                         const LaunchContext &launch)
    : ia(kernel, launch)
{
    // Dispatch order is a pure tie-break only when every WG can be
    // resident at once; under contention it decides *who* occupies
    // the machine, which deadlock/livelock verdicts depend on.
    dispatchUncontended = launch.maxResidentWgs >= launch.numWgs;
}

bool
CommutativityOracle::reorderableSite(sim::ChoicePoint site)
{
    switch (site) {
      case sim::ChoicePoint::WavefrontIssue:
      case sim::ChoicePoint::ResumeOrder:
      case sim::ChoicePoint::SpillScan:
      case sim::ChoicePoint::RescueOrder:
        return true;
      default:
        return false;
    }
}

bool
CommutativityOracle::independent(const SchedAction &a,
                                 const SchedAction &b) const
{
    if (ia.capped() || !a.known() || !b.known() || a.wg == b.wg)
        return false;
    auto site_ok = [&](sim::ChoicePoint site) {
        if (site == sim::ChoicePoint::DispatchPick)
            return dispatchUncontended;
        return reorderableSite(site);
    };
    if (!site_ok(a.site) || !site_ok(b.site))
        return false;
    return !ia.mayConflictFrom(static_cast<unsigned>(a.wg),
                               static_cast<std::size_t>(a.pc),
                               static_cast<unsigned>(b.wg),
                               static_cast<std::size_t>(b.pc));
}

// ---------------------------------------------------------------------
// The "interference" lint pass (static-circular-wait)
// ---------------------------------------------------------------------

void
runInterferencePass(const PassContext &ctx, std::vector<Diagnostic> &out)
{
    InterferenceAnalysis ia(ctx.kernel, ctx.df.launch());
    if (ia.capped() || ia.circularWaits().empty())
        return;

    // One diagnostic per wait pc; the WGs stuck there are aggregated.
    std::map<std::size_t, std::vector<unsigned>> by_pc;
    for (const WaitSite &w : ia.circularWaits())
        by_pc[w.pc].push_back(w.wg);

    for (const auto &[pc, wgs] : by_pc) {
        std::string who;
        for (unsigned wg : wgs) {
            if (!who.empty())
                who += ",";
            who += std::to_string(wg);
        }
        Diagnostic d;
        d.pass = "interference";
        d.code = "static-circular-wait";
        d.severity = Severity::Warning;
        d.pc = static_cast<int>(pc);
        d.message =
            "WG " + who + " wait(s) here for a value no other WG can "
            "publish first: every overlapping notify site is behind a "
            "wait that is itself stuck (static circular wait)";
        d.disasm = isa::disassemble(ctx.kernel.code[pc]);
        d.hint = "publish (store/atomic) before waiting, or break the "
                 "wait cycle so some WG's notify is reachable without "
                 "waiting";
        out.push_back(std::move(d));
    }
}

// ---------------------------------------------------------------------
// Summaries: ifplint --interference text + JSON
// ---------------------------------------------------------------------

std::string
intervalToString(const Interval &iv)
{
    auto end = [](std::int64_t v) -> std::string {
        if (v == std::numeric_limits<std::int64_t>::min())
            return "-inf";
        if (v == std::numeric_limits<std::int64_t>::max())
            return "+inf";
        return std::to_string(v);
    };
    std::string s = "[";
    s += end(iv.lo);
    s += ", ";
    s += end(iv.hi);
    s += "]";
    return s;
}

namespace {

std::string
accessListToString(const AccessList &al)
{
    std::string s = "{";
    for (std::size_t i = 0; i < al.intervals.size(); ++i) {
        if (i)
            s += " ";
        s += intervalToString(al.intervals[i]);
    }
    if (al.unbounded)
        s += std::string(al.intervals.empty() ? "" : " ") + "unbounded";
    return s + "}";
}

} // anonymous namespace

InterferenceSummary
summarizeInterference(const isa::Kernel &kernel,
                      const LaunchContext &launch)
{
    InterferenceAnalysis ia(kernel, launch);
    InterferenceSummary s;
    s.kernel = kernel.name;
    s.numWgs = launch.numWgs;
    s.capped = ia.capped();
    if (s.capped)
        return s;
    for (unsigned wg = 0; wg < s.numWgs; ++wg)
        s.wgFootprints.push_back(ia.footprint(wg));
    for (unsigned a = 0; a < s.numWgs; ++a) {
        for (unsigned b = a + 1; b < s.numWgs; ++b) {
            if (ia.mayConflict(a, b))
                ++s.conflictPairs;
            else
                ++s.independentPairs;
            if (ia.syncAliases(a, b))
                ++s.syncAliasPairs;
        }
    }
    s.waitSites = ia.waitSites();
    s.waitForEdges = static_cast<unsigned>(ia.waitForEdges().size());
    for (const WaitForEdge &e : ia.waitForEdges())
        s.guardedEdges += e.guarded ? 1 : 0;
    s.circular = ia.circularWaits();
    return s;
}

void
printInterferenceSummary(const InterferenceSummary &s, std::ostream &os)
{
    os << s.kernel << ": " << s.numWgs << " WGs";
    if (s.capped) {
        os << " (beyond per-WG analysis cap; all queries conservative)\n";
        return;
    }
    os << ", " << s.conflictPairs << " conflicting / "
       << s.independentPairs << " independent WG pairs, "
       << s.syncAliasPairs << " sync-aliasing pairs\n";
    const unsigned shown =
        std::min<unsigned>(8, static_cast<unsigned>(s.wgFootprints.size()));
    for (unsigned wg = 0; wg < shown; ++wg) {
        const Footprint &fp = s.wgFootprints[wg];
        os << "  wg " << wg << ": reads "
           << accessListToString(fp.reads) << " writes "
           << accessListToString(fp.writes) << " waits "
           << accessListToString(fp.waits) << "\n";
    }
    if (s.wgFootprints.size() > shown) {
        os << "  ... (" << s.wgFootprints.size() - shown
           << " more WGs)\n";
    }
    os << "  wait-for graph: " << s.waitSites.size() << " wait sites, "
       << s.waitForEdges << " may-unblock edges (" << s.guardedEdges
       << " guarded)\n";
    for (const WaitSite &w : s.circular) {
        os << "  STATIC CIRCULAR WAIT: wg " << w.wg << " pc " << w.pc
           << (w.spin ? " (spin)" : "") << " addr "
           << intervalToString(w.addr) << " expects "
           << intervalToString(w.expected) << "\n";
    }
}

namespace {

void
writeAccessListJson(sim::json::Writer &w, const AccessList &al)
{
    w.beginObject().key("intervals").beginArray();
    for (const Interval &iv : al.intervals)
        w.beginArray().value(iv.lo).value(iv.hi).endArray();
    w.endArray().key("unbounded").value(al.unbounded).endObject();
}

void
writeWaitSiteJson(sim::json::Writer &w, const WaitSite &site)
{
    w.beginObject().key("wg").value(site.wg).key("pc").value(site.pc);
    w.key("spin").value(site.spin);
    w.key("addr").value(intervalToString(site.addr));
    w.key("expected").value(intervalToString(site.expected));
    w.endObject();
}

} // anonymous namespace

void
writeInterferenceSummariesJson(
    const std::vector<InterferenceSummary> &summaries, std::ostream &os)
{
    sim::json::Writer w(os);
    w.beginObject().key("schema").value("ifp-interference-v1");
    w.key("kernels").beginArray();
    for (const InterferenceSummary &s : summaries) {
        w.beginObject().key("kernel").value(s.kernel);
        w.key("numWgs").value(s.numWgs).key("capped").value(s.capped);
        if (!s.capped) {
            w.key("wgs").beginArray();
            for (std::size_t wg = 0; wg < s.wgFootprints.size(); ++wg) {
                const Footprint &fp = s.wgFootprints[wg];
                w.beginObject().key("wg").value(wg).key("reads");
                writeAccessListJson(w, fp.reads);
                w.key("writes");
                writeAccessListJson(w, fp.writes);
                w.key("waits");
                writeAccessListJson(w, fp.waits);
                w.endObject();
            }
            w.endArray();
            w.key("conflictPairs").value(s.conflictPairs);
            w.key("independentPairs").value(s.independentPairs);
            w.key("syncAliasPairs").value(s.syncAliasPairs);
            w.key("waitForEdges").value(s.waitForEdges);
            w.key("guardedEdges").value(s.guardedEdges);
            w.key("waitSites").beginArray();
            for (const WaitSite &site : s.waitSites)
                writeWaitSiteJson(w, site);
            w.endArray().key("circularWaits").beginArray();
            for (const WaitSite &site : s.circular)
                writeWaitSiteJson(w, site);
            w.endArray();
        }
        w.endObject();
    }
    w.endArray().endObject();
    os << '\n';
}

} // namespace ifp::analysis
