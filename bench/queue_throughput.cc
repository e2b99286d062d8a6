/**
 * @file
 * Queue-family throughput and resume-prediction accuracy sweep
 * (DESIGN.md §12, EXPERIMENTS.md).
 *
 * The concurrent-queue workloads block WGs on *data* conditions
 * (slot sequence numbers, drain counters) whose values climb with
 * every transported item, so they stress the SyncMon paths the
 * HeteroSync mutex/barrier suite leaves cold: the AWG predictor's
 * counting Bloom filters at high unique-update rates, and the
 * Monitor Log under many distinct monitored addresses.
 *
 * Three sweeps:
 *  1. MPMCQ: policy x ring depth x producer:consumer ratio —
 *     items/kilocycle plus AWG resume-prediction accuracy,
 *  2. PIPE: policy x ring depth at three stages,
 *  3. WSD: policy sweep of the work-stealing drain.
 *
 * Accuracy = 1 - mispredicted/predicted, where a predicted resume is
 * counted when the AWG predictor wakes a waiter and a misprediction
 * when that waiter re-registers the same condition unchanged.
 */

#include <memory>

#include "bench_common.hh"
#include "workloads/queues.hh"

namespace {

using ifp::core::Policy;
using ifp::core::RunResult;

const std::vector<Policy> queuePolicies = {
    Policy::Baseline, Policy::Sleep, Policy::Timeout, Policy::MonRAll,
    Policy::Awg};

/** Items moved per thousand GPU cycles. */
std::string
itemsPerKilocycle(const RunResult &r, std::uint64_t items)
{
    if (!r.completed || r.gpuCycles == 0)
        return r.statusString();
    return ifp::harness::formatDouble(
        static_cast<double>(items) * 1000.0 /
            static_cast<double>(r.gpuCycles),
        2);
}

/** Resume-prediction accuracy cell ("-" outside AWG). */
std::string
accuracyCell(const RunResult &r)
{
    if (r.predictedResumes == 0)
        return "-";
    double accuracy =
        1.0 - static_cast<double>(r.mispredictedResumes) /
                  static_cast<double>(r.predictedResumes);
    return ifp::harness::formatDouble(accuracy, 3);
}

} // anonymous namespace

int
main()
{
    using namespace ifp;
    bench::banner("Queue-family throughput & resume prediction",
                  "MPMCQ/PIPE/WSD: data-condition waits vs. policy");

    workloads::WorkloadParams params = harness::defaultEvalParams();
    const std::uint64_t items =
        workloads::MpmcQueueWorkload::totalItems(params);

    struct MpmcCell
    {
        unsigned depth;
        unsigned producerShare;
        unsigned consumerShare;
    };
    const std::vector<MpmcCell> mpmc_cells = {
        {4, 1, 1}, {8, 1, 1}, {16, 1, 1}, {8, 3, 1}, {8, 1, 3}};

    std::cout << "\nMPMCQ: bounded MPMC ring (items/kcycle; accuracy "
                 "is AWG's resume prediction):\n";
    {
        harness::SweepRunner sweep;
        for (const MpmcCell &cell : mpmc_cells) {
            for (Policy policy : queuePolicies) {
                harness::Experiment exp;
                exp.workload = "MPMCQ";
                exp.policy = policy;
                exp.params = params;
                exp.makeWorkload = [cell] {
                    return std::make_unique<
                        workloads::MpmcQueueWorkload>(
                        cell.depth, cell.producerShare,
                        cell.consumerShare);
                };
                sweep.enqueue(exp);
            }
        }
        bench::runSweep(sweep, "queue_throughput/mpmcq");

        harness::TextTable t({"Depth", "P:C", "Baseline", "Sleep",
                              "Timeout", "MonR-All", "AWG",
                              "AWG accuracy"});
        std::size_t idx = 0;
        for (const MpmcCell &cell : mpmc_cells) {
            std::vector<std::string> row = {
                std::to_string(cell.depth),
                std::to_string(cell.producerShare) + ":" +
                    std::to_string(cell.consumerShare)};
            const RunResult *awg = nullptr;
            for (Policy policy : queuePolicies) {
                const RunResult &r = sweep.result(idx++);
                row.push_back(itemsPerKilocycle(r, items));
                if (policy == Policy::Awg)
                    awg = &r;
            }
            row.push_back(accuracyCell(*awg));
            t.addRow(row);
        }
        bench::printTable(t);
    }

    std::cout << "\nPIPE: three-stage pipeline over bounded rings "
                 "(items/kcycle):\n";
    {
        const std::vector<unsigned> depths = {4, 8, 16};
        harness::SweepRunner sweep;
        for (unsigned depth : depths) {
            for (Policy policy : queuePolicies) {
                harness::Experiment exp;
                exp.workload = "PIPE";
                exp.policy = policy;
                exp.params = params;
                exp.makeWorkload = [depth] {
                    return std::make_unique<
                        workloads::PipelineWorkload>(3, depth);
                };
                sweep.enqueue(exp);
            }
        }
        bench::runSweep(sweep, "queue_throughput/pipe");

        harness::TextTable t({"Depth", "Baseline", "Sleep", "Timeout",
                              "MonR-All", "AWG", "AWG accuracy"});
        std::size_t idx = 0;
        for (unsigned depth : depths) {
            std::vector<std::string> row = {std::to_string(depth)};
            const RunResult *awg = nullptr;
            for (Policy policy : queuePolicies) {
                const RunResult &r = sweep.result(idx++);
                row.push_back(itemsPerKilocycle(r, items));
                if (policy == Policy::Awg)
                    awg = &r;
            }
            row.push_back(accuracyCell(*awg));
            t.addRow(row);
        }
        bench::printTable(t);
    }

    std::cout << "\nWSD: work-stealing drain (tasks/kcycle; the "
                 "ceiling wait parks every WG on one hot counter):\n";
    {
        harness::SweepRunner sweep;
        for (Policy policy : queuePolicies) {
            harness::Experiment exp;
            exp.workload = "WSD";
            exp.policy = policy;
            exp.params = params;
            sweep.enqueue(exp);
        }
        bench::runSweep(sweep, "queue_throughput/wsd");

        harness::TextTable t({"Policy", "Tasks/kcycle", "Cycles",
                              "Accuracy"});
        std::size_t idx = 0;
        for (Policy policy : queuePolicies) {
            const RunResult &r = sweep.result(idx++);
            t.addRow({core::policyName(policy),
                      itemsPerKilocycle(r, items),
                      std::to_string(r.gpuCycles), accuracyCell(r)});
        }
        bench::printTable(t);
    }

    std::cout << "\nReading: polling policies pay for every empty/full "
                 "probe at the L2; the waiting-atomic policies park "
                 "producers and consumers until the exact sequence "
                 "value lands. AWG's accuracy column shows how often "
                 "the Bloom predictor's wakeups were useful despite "
                 "the queue counters' high unique-update rate.\n";
    return 0;
}
