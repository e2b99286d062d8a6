/**
 * @file
 * Parallel sweep execution for the evaluation harness.
 *
 * Every paper figure is a sweep of independent (workload x policy x
 * scenario) simulations. SweepRunner fans those runs out across a
 * thread pool — each worker owns its GpuSystem, EventQueue and RNG,
 * so runs never share mutable state — and hands results back in
 * submission order. Tables and CSV output assembled from the results
 * are therefore byte-identical to a serial run; only the wall clock
 * changes. jobs=1 bypasses the pool entirely (legacy serial path).
 */

#ifndef IFP_HARNESS_SWEEP_HH
#define IFP_HARNESS_SWEEP_HH

#include <cstddef>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace ifp::harness {

/** Batch of independent experiments executed by a worker pool. */
class SweepRunner
{
  public:
    /**
     * @param jobs worker count; 0 means "use jobsFromEnv()", 1 runs
     *             everything serially on the calling thread.
     */
    explicit SweepRunner(unsigned jobs = 0);

    /** Queue one experiment; @return its index into results(). */
    std::size_t enqueue(Experiment exp);

    /** Number of experiments queued so far. */
    std::size_t size() const { return experiments.size(); }

    /**
     * Execute every queued experiment and return the results in
     * submission order. Idempotent: later calls return the same
     * vector without re-running.
     */
    const std::vector<core::RunResult> &run();

    /** Result of the @p index-th enqueued experiment (after run()). */
    const core::RunResult &result(std::size_t index) const;

    /** All results, in submission order (after run()). */
    const std::vector<core::RunResult> &results() const;

    /** Worker count this runner resolved to. */
    unsigned jobs() const { return numJobs; }

    /** Wall-clock seconds spent inside run(). */
    double wallSeconds() const { return wall; }

    /** Sum of per-run seconds: the serial-equivalent cost. */
    double serialSeconds() const { return serial; }

    /**
     * Print a one-line wall-clock/speedup report for this sweep to
     * stderr (stdout stays reserved for tables/CSV so parallel and
     * serial output remain diffable).
     */
    void reportPerf(const std::string &label) const;

    /**
     * Worker count from the IFP_BENCH_JOBS environment variable;
     * unset or invalid falls back to hardware concurrency.
     */
    static unsigned jobsFromEnv();

  private:
    unsigned numJobs;
    std::vector<Experiment> experiments;
    std::vector<core::RunResult> resultsVec;
    std::vector<double> pointSecs;
    double wall = 0.0;
    double serial = 0.0;
    bool ran = false;
};

/** One-shot convenience: run @p exps on @p jobs workers. */
std::vector<core::RunResult>
runSweep(const std::vector<Experiment> &exps, unsigned jobs = 0);

} // namespace ifp::harness

#endif // IFP_HARNESS_SWEEP_HH
