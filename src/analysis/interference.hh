/**
 * @file
 * Inter-WG interference analysis: whole-launch memory-footprint
 * summaries, sync-object aliasing, and a static wait-for graph —
 * plus the commutativity oracle the schedule explorer's partial-order
 * reduction is built on.
 *
 * The per-kernel interval dataflow (analysis/dataflow.hh) is re-run
 * once per work-group with r1 *pinned* to that WG's id
 * (LaunchContext::pinnedWg), so per-WG addresses (flag arrays indexed
 * by wg id) materialize as exact constants and the footprints of
 * different WGs become comparable address sets. Three artifacts come
 * out of that:
 *
 *  - **Footprints**: per WG, the abstract address intervals it may
 *    read / write / wait on (globals only; LDS is WG-private).
 *    Unbounded abstract addresses set a per-class `unbounded` flag
 *    instead of silently widening — every consumer treats unbounded
 *    as "overlaps everything".
 *  - **Wait-for graph**: static wait sites (AtomWait / ArmWait /
 *    spin-wait loops) matched against notify sites (global writes to
 *    an overlapping abstract address). A wait whose every overlapping
 *    notify is *guarded* — dominated by a wait of the notifying WG
 *    that is itself stuck — can never be satisfied; the greatest
 *    fixpoint of that rule is the static circular-wait set, reported
 *    by the "interference" lint pass (code static-circular-wait).
 *    Memory is zero-initialized at launch, so waits whose expected
 *    interval may include 0 (TAS locks waiting for "free") are never
 *    candidates.
 *  - **Commutativity oracle**: maps pairs of scheduler choice points
 *    (site x actor WG at its current pc) to independent/dependent.
 *    Two actions are independent only when both sites are reorderable
 *    tie-breaks, the actors are distinct WGs, and the WGs' *suffix*
 *    footprints (everything reachable from their current pcs) are
 *    bounded and disjoint. Everything else — unknown actors,
 *    unbounded footprints, capped launches — is dependent, which
 *    keeps the reduction sound (explore::exhaustive only ever *skips*
 *    alternatives proven independent).
 */

#ifndef IFP_ANALYSIS_INTERFERENCE_HH
#define IFP_ANALYSIS_INTERFERENCE_HH

#include <iosfwd>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataflow.hh"
#include "isa/kernel.hh"
#include "sim/sched_oracle.hh"

namespace ifp::analysis {

/**
 * A set of abstract addresses: sorted, merged, bounded intervals plus
 * an "anything else" flag for accesses whose abstract address is
 * unbounded.
 */
struct AccessList
{
    std::vector<Interval> intervals;  //!< bounded, sorted by lo, merged
    bool unbounded = false;

    void add(const Interval &addr);
    /** Sort + merge the bounded intervals (idempotent). */
    void normalize();

    bool empty() const { return intervals.empty() && !unbounded; }

    /** May the two sets share an address? Unbounded overlaps all. */
    bool overlaps(const AccessList &o) const;
    bool overlapsInterval(const Interval &addr) const;
};

/** One WG's abstract memory footprint, per access class. */
struct Footprint
{
    AccessList reads;   //!< Ld / Atom / AtomWait / ArmWait addresses
    AccessList writes;  //!< St / mutating Atom / AtomWait addresses
    AccessList waits;   //!< waited addresses (subset of reads)

    /** No access class fell back to the unbounded flag. */
    bool bounded() const
    {
        return !reads.unbounded && !writes.unbounded && !waits.unbounded;
    }

    /** write/read or write/write overlap in either direction. */
    bool conflictsWith(const Footprint &o) const;
};

/** One static wait site of one (pinned) WG. */
struct WaitSite
{
    unsigned wg = 0;
    std::size_t pc = 0;
    Interval addr;      //!< abstract waited address
    Interval expected;  //!< awaited value (top when unknown)
    bool spin = false;  //!< spin-wait loop vs AtomWait/ArmWait
};

/** One may-unblock edge of the static wait-for graph. */
struct WaitForEdge
{
    unsigned waiter = 0;    //!< WG owning the wait site
    unsigned notifier = 0;  //!< WG owning the overlapping write
    std::size_t waitPc = 0;
    std::size_t notifyPc = 0;
    /** The notify sits behind a (candidate-stuck) wait of its WG. */
    bool guarded = false;
};

/**
 * Whole-launch interference facts for one kernel: per-WG footprints,
 * pairwise conflict/aliasing queries, and the static wait-for graph.
 *
 * Launches beyond kMaxAnalyzedWgs work-groups are not analyzed per-WG
 * (capped() == true): every query then answers conservatively
 * (conflicting / dependent) and the circular-wait set is empty.
 */
class InterferenceAnalysis
{
  public:
    /** Per-WG analysis cap; beyond it everything is conservative. */
    static constexpr unsigned kMaxAnalyzedWgs = 64;

    InterferenceAnalysis(const isa::Kernel &kernel,
                         const LaunchContext &launch);

    unsigned numWgs() const { return ctx.numWgs; }
    bool capped() const { return isCapped; }
    const Cfg &cfg() const { return graph; }

    /** Whole-kernel footprint of @p wg (!capped(), wg < numWgs()). */
    const Footprint &footprint(unsigned wg) const { return prints[wg]; }

    /**
     * Footprint of everything @p wg can still execute from @p pc
     * (block granularity, following back edges). Conservatively
     * unbounded for out-of-range pcs or capped launches. Memoized.
     */
    const Footprint &suffixFootprint(unsigned wg, std::size_t pc) const;

    /** May the two WGs' whole-kernel footprints conflict? */
    bool mayConflict(unsigned a, unsigned b) const;

    /** Suffix-footprint conflict from the WGs' current pcs. */
    bool mayConflictFrom(unsigned a, std::size_t pc_a,
                         unsigned b, std::size_t pc_b) const;

    /** May the two WGs wait on / notify a common sync address? */
    bool syncAliases(unsigned a, unsigned b) const;

    /** All static wait sites, ordered by (wg, pc). */
    const std::vector<WaitSite> &waitSites() const { return waits; }

    /** The static wait-for graph (candidate waits x notifies). */
    const std::vector<WaitForEdge> &waitForEdges() const
    {
        return edges;
    }

    /** Wait sites stuck in a static circular wait (the gfp). */
    const std::vector<WaitSite> &circularWaits() const
    {
        return circular;
    }

  private:
    struct NotifySite
    {
        unsigned wg;
        std::size_t pc;
        Interval addr;
    };

    void buildWaitForGraph();

    Cfg graph;
    LaunchContext ctx;
    bool isCapped = false;
    std::vector<std::unique_ptr<Dataflow>> flows;  //!< per WG, pinned
    std::vector<Footprint> prints;                 //!< per WG
    std::vector<std::set<std::size_t>> spinPcs;    //!< per WG
    std::vector<WaitSite> waits;
    std::vector<NotifySite> notifies;
    std::vector<WaitForEdge> edges;
    std::vector<WaitSite> circular;
    Footprint unboundedPrint;  //!< the conservative answer
    mutable std::map<std::pair<unsigned, int>, Footprint> suffixMemo;
};

/**
 * One scheduler choice-point alternative, named by its actor: taking
 * it lets work-group @p wg (currently at @p pc) proceed next at a
 * @p site tie-break. Unknown actors (wg or pc < 0) are never
 * independent of anything.
 */
struct SchedAction
{
    sim::ChoicePoint site = sim::ChoicePoint::DispatchPick;
    int wg = -1;
    int pc = -1;

    bool known() const { return wg >= 0 && pc >= 0; }
    bool operator==(const SchedAction &o) const
    {
        return site == o.site && wg == o.wg && pc == o.pc;
    }
};

/**
 * The independence relation for partial-order reduction, built on one
 * InterferenceAnalysis. independent(a, b) holds only when
 *
 *  - both sites are pure tie-breaks whose alternatives commute at the
 *    machine level (WavefrontIssue, ResumeOrder, SpillScan,
 *    RescueOrder always; DispatchPick only when every WG can be
 *    resident at once, so dispatch order cannot change *who* runs);
 *    HostCu and ResumeVictim choices change machine placement /
 *    monitor state and are always dependent,
 *  - the actors are distinct WGs with known pcs, and
 *  - the two WGs' suffix footprints from those pcs are bounded and
 *    conflict-free.
 *
 * Anything unknown or unbounded falls back to "dependent".
 */
class CommutativityOracle
{
  public:
    CommutativityOracle(const isa::Kernel &kernel,
                        const LaunchContext &launch);

    bool independent(const SchedAction &a, const SchedAction &b) const;

    const InterferenceAnalysis &analysis() const { return ia; }

  private:
    static bool reorderableSite(sim::ChoicePoint site);

    InterferenceAnalysis ia;
    bool dispatchUncontended = false;
};

/**
 * Plain-data interference report for one kernel, the unit behind
 * `ifplint --interference` (text and deterministic JSON).
 */
struct InterferenceSummary
{
    std::string kernel;
    unsigned numWgs = 0;
    bool capped = false;
    std::vector<Footprint> wgFootprints;  //!< empty when capped
    unsigned conflictPairs = 0;
    unsigned syncAliasPairs = 0;
    unsigned independentPairs = 0;
    std::vector<WaitSite> waitSites;
    unsigned waitForEdges = 0;
    unsigned guardedEdges = 0;
    std::vector<WaitSite> circular;
};

InterferenceSummary summarizeInterference(const isa::Kernel &kernel,
                                          const LaunchContext &launch);

/** Render one interval with -inf/+inf sentinels ("[8, 8]"). */
std::string intervalToString(const Interval &iv);

void printInterferenceSummary(const InterferenceSummary &summary,
                              std::ostream &os);

/**
 * Deterministic compact JSON over all summaries:
 * {"schema": "ifp-interference-v1", "kernels": [...]}.
 */
void writeInterferenceSummariesJson(
    const std::vector<InterferenceSummary> &summaries, std::ostream &os);

} // namespace ifp::analysis

#endif // IFP_ANALYSIS_INTERFERENCE_HH
