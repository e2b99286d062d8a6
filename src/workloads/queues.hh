/**
 * @file
 * Concurrent-queue and producer/consumer workloads (DESIGN.md §12).
 *
 * Unlike the HeteroSync suite — whose waits target a handful of lock
 * and barrier words — this family blocks work-groups on DATA
 * conditions: queue-slot sequence numbers (empty/full) and drain
 * counters. Many distinct addresses carry waits whose expected values
 * climb monotonically, which stresses exactly the SyncMon paths the
 * mutex workloads leave cold: the AWG resume predictor's counting
 * Bloom filters at high unique-update rates and the Monitor Log
 * spill/refill machinery.
 *
 * Every hardware wait in the family awaits a PERSISTENT value (the
 * WaitAtomic re-execute loop never returns to software for a
 * re-check, see sync_emitters.hh):
 *  - slot-sequence waits (the bounded-MPMC protocol): the expected
 *    sequence stays put until the waiting party itself advances it;
 *  - ceiling-counter waits: the counter's terminal value is the
 *    expectation, and the counter parks there.
 */

#ifndef IFP_WORKLOADS_QUEUES_HH
#define IFP_WORKLOADS_QUEUES_HH

#include "core/policy.hh"
#include "core/liveness.hh"
#include "workloads/workload.hh"

namespace ifp::workloads {

/**
 * MPMC broker queue (MPMCQ): a bounded multi-producer/multi-consumer
 * ring with ticket-based head/tail counters and one 64-byte line per
 * slot (sequence word at +0, payload at +8), the classic bounded-MPMC
 * slot protocol. Producer WGs fetch-add the tail ticket and wait for
 * their slot's sequence to equal the ticket; consumers fetch-add the
 * head ticket and wait for ticket+1. Both break once their ticket
 * reaches the item total, so the final counter values are exact.
 */
class MpmcQueueWorkload : public Workload
{
  public:
    /**
     * @param depth           ring slots
     * @param producer_share  producer:consumer WG ratio, producers
     * @param consumer_share  ... and consumers (e.g. 1:1, 3:1)
     */
    explicit MpmcQueueWorkload(unsigned depth = 8,
                               unsigned producer_share = 1,
                               unsigned consumer_share = 1)
        : depth(depth), producerShare(producer_share),
          consumerShare(consumer_share)
    {}

    std::string name() const override;
    std::string abbrev() const override;
    Table2Row characteristics() const override;
    isa::Kernel build(core::GpuSystem &system,
                      const WorkloadParams &params) const override;
    bool validate(const mem::BackingStore &store,
                  const WorkloadParams &params,
                  std::string &error) const override;

    /** Producer WG count for a grid of @p num_wgs. */
    unsigned numProducers(unsigned num_wgs) const;

    /** Items transported in one run. */
    static std::uint64_t
    totalItems(const WorkloadParams &params)
    {
        return std::uint64_t(params.numWgs) * params.iters;
    }

  private:
    unsigned depth;
    unsigned producerShare;
    unsigned consumerShare;
    mutable mem::Addr slotsBase = 0;
    mutable mem::Addr ticketsBase = 0;  //!< tail at +0, head at +64
    mutable mem::Addr checksumBase = 0;
};

/**
 * Multi-stage pipeline (PIPE): stage-0 WGs source numbered items,
 * interior stages transform (+1) and forward, the final stage folds
 * items into a checksum. Adjacent stages are connected by bounded
 * rings of the same slot protocol as MPMCQ, so stages block on
 * empty/full DATA conditions, never on mutexes. Stage role is
 * wgId % numStages.
 */
class PipelineWorkload : public Workload
{
  public:
    explicit PipelineWorkload(unsigned stages = 3, unsigned depth = 8)
        : stages(stages), depth(depth)
    {}

    std::string name() const override;
    std::string abbrev() const override;
    Table2Row characteristics() const override;
    isa::Kernel build(core::GpuSystem &system,
                      const WorkloadParams &params) const override;
    bool validate(const mem::BackingStore &store,
                  const WorkloadParams &params,
                  std::string &error) const override;

    static std::uint64_t
    totalItems(const WorkloadParams &params)
    {
        return std::uint64_t(params.numWgs) * params.iters;
    }

  private:
    /** WGs running stage @p s of a @p num_wgs grid. */
    unsigned stageWgs(unsigned s, unsigned num_wgs) const;

    unsigned stages;
    unsigned depth;
    mutable mem::Addr ringsBase = 0;    //!< stages-1 rings of slots
    mutable mem::Addr ticketsBase = 0;  //!< per ring: tail +0, head +64
    mutable mem::Addr sourceBase = 0;
    mutable mem::Addr checksumBase = 0;
};

/**
 * Work-stealing task graph (WSD): each WG owns a deque of iters
 * tasks (one 64-byte line per task: claim word at +0, value at +8).
 * A WG drains its own deque, sweeps every other WG's deque stealing
 * unclaimed tasks (atomic exchange claims), then parks on a ceiling
 * wait until the global done counter reaches the task total. The
 * done counter takes G*iters distinct values before the expectation
 * is met — the highest unique-update rate in the registry, which is
 * what drives the AWG Bloom predictor into its saturating regime.
 */
class WorkStealWorkload : public Workload
{
  public:
    WorkStealWorkload() = default;

    std::string name() const override;
    std::string abbrev() const override;
    Table2Row characteristics() const override;
    isa::Kernel build(core::GpuSystem &system,
                      const WorkloadParams &params) const override;
    bool validate(const mem::BackingStore &store,
                  const WorkloadParams &params,
                  std::string &error) const override;

    static std::uint64_t
    totalTasks(const WorkloadParams &params)
    {
        return std::uint64_t(params.numWgs) * params.iters;
    }

  private:
    mutable mem::Addr tasksBase = 0;
    mutable mem::Addr doneBase = 0;
    mutable mem::Addr checksumBase = 0;
};

/** Abbreviations of the queue family, in registry order. */
std::vector<std::string> queueAbbrevs();

/**
 * Annotated verdict for a queue workload under @p policy at the
 * default all-resident geometry (every WG resident, so even the
 * IFP-less busy/sleep policies complete). Mirrors the litmus
 * annotation contract: tests drive each (workload, policy) cell and
 * fail on any observed verdict that contradicts the annotation.
 */
core::Verdict queueExpectedVerdict(const std::string &abbrev,
                                   core::Policy policy);

} // namespace ifp::workloads

#endif // IFP_WORKLOADS_QUEUES_HH
