/**
 * @file
 * Schedule-choice oracle: the seam the exploration engine drives.
 *
 * The simulator is deterministic — every "which one next?" decision
 * (WG dispatch order, CU placement, SIMD wavefront arbitration,
 * SyncMon resume delivery, CP housekeeping order) has a single fixed
 * answer. All of those answers are nevertheless *unspecified* by the
 * programming model: a real GPU is free to pick any of the legal
 * candidates, and a progress property only holds if it holds under
 * every such schedule.
 *
 * A SchedOracle makes the decisions explicit. Each decision site
 * computes the candidate count and the index the stock scheduler
 * would take (`preferred`), then asks the oracle. With no oracle
 * installed the site never builds candidate lists and takes the
 * stock pick — runs are byte-identical to the pre-oracle simulator.
 * An oracle that always returns `preferred` reproduces stock
 * behavior choice-for-choice (tested).
 *
 * Oracles live in sim/ (not gpu/) because the dispatcher, the CUs,
 * the SyncMon and the CP all consult one; src/explore builds the
 * random-walk and bounded-exhaustive drivers on top.
 */

#ifndef IFP_SIM_SCHED_ORACLE_HH
#define IFP_SIM_SCHED_ORACLE_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace ifp::sim {

/** Which scheduling decision is being made. */
enum class ChoicePoint
{
    DispatchPick,    //!< which dispatchable WG the dispatcher places next
    HostCu,          //!< which capable CU hosts the picked WG
    WavefrontIssue,  //!< which issuable wavefront a SIMD issues
    ResumeOrder,     //!< delivery order of a SyncMon resume-all batch
    ResumeVictim,    //!< which waiter a SyncMon resume-one wakes
    SpillScan,       //!< order the CP resumes met spilled conditions
    RescueOrder,     //!< order the CP fires expired rescue timers
};

/**
 * The decision interface. choose() is only called with n >= 2 —
 * sites short-circuit singleton candidate sets — and must return an
 * index < n. Returning `preferred` everywhere reproduces the stock
 * schedule.
 *
 * Sites whose candidates are work-groups call chooseWithActors()
 * instead, passing the candidate WG ids in choice order. The default
 * forwards to choose(), so plain oracles are unaffected; the
 * exploration engine's recording oracle overrides it to name each
 * alternative by its actor — the input the partial-order reduction's
 * independence relation needs. Sites whose candidates are not WGs
 * (HostCu picks a CU) keep calling choose().
 */
class SchedOracle
{
  public:
    virtual ~SchedOracle() = default;

    virtual unsigned choose(ChoicePoint site, unsigned n,
                            unsigned preferred) = 0;

    /** choose() plus the candidate WG ids (@p actor_wgs, size n). */
    virtual unsigned chooseWithActors(ChoicePoint site, unsigned n,
                                      unsigned preferred,
                                      const int *actor_wgs)
    {
        (void)actor_wgs;
        return choose(site, n, preferred);
    }
};

/**
 * In-place permutation of the WG ids in @p items by repeated
 * selection: position i is filled by asking the oracle to pick among
 * the remaining candidates (preferred = 0 keeps the original order).
 * Used by the order-valued sites (ResumeOrder, SpillScan,
 * RescueOrder) so a permutation costs n-1 unit choices, which keeps
 * the exhaustive driver's branching bookkeeping uniform. The
 * remaining candidates double as the actor list.
 */
inline void
oraclePermute(SchedOracle *oracle, ChoicePoint site,
              std::vector<int> &items)
{
    if (!oracle || items.size() < 2)
        return;
    for (std::size_t i = 0; i + 1 < items.size(); ++i) {
        unsigned remaining = static_cast<unsigned>(items.size() - i);
        unsigned pick = oracle->chooseWithActors(site, remaining, 0,
                                                 items.data() + i);
        if (pick != 0)
            std::swap(items[i], items[i + pick]);
    }
}

} // namespace ifp::sim

#endif // IFP_SIM_SCHED_ORACLE_HH
