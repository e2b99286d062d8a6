/**
 * @file
 * Run observability: exporting a finished run's trace and statistics.
 *
 * The harness side of the observability layer (see sim/trace_sink.hh
 * for the in-simulator side). An Experiment carries an ObserveOptions;
 * when any output is requested the runner enables RunConfig::
 * traceEnabled and, after the run, writes
 *
 *  - a Chrome-trace JSON file (load it in Perfetto / chrome://tracing:
 *    one track per CU plus dispatcher/SyncMon/CP rows, one async span
 *    per WG with lifecycle phase segments), and/or
 *  - a stats-JSON file: the experiment, the RunResult and every
 *    component StatGroup in one machine-readable object.
 *
 * Output paths may contain the placeholders {workload}, {policy} and
 * {scenario}, which expand per run — handy when one bench process
 * performs many runs.
 */

#ifndef IFP_HARNESS_OBSERVE_HH
#define IFP_HARNESS_OBSERVE_HH

#include <ostream>
#include <string>

#include "core/gpu_system.hh"
#include "core/run_result.hh"

namespace ifp::harness {

struct Experiment;

/** Per-experiment observability outputs. */
struct ObserveOptions
{
    /** Chrome-trace JSON destination ("" = no trace file). */
    std::string traceOutPath;
    /** Stats-JSON destination ("" = no stats file). */
    std::string statsJsonPath;
    /**
     * Collect trace events even without an output file (tests read
     * them through GpuSystem::traceSink()).
     */
    bool captureTrace = false;

    /** Whether the run needs a TraceSink at all. */
    bool
    wantsCapture() const
    {
        return captureTrace || !traceOutPath.empty() ||
               !statsJsonPath.empty();
    }
};

/**
 * Expand {workload}, {policy} and {scenario} in an output path.
 * {scenario} becomes "oversub" or "steady".
 */
std::string expandObservePath(const std::string &path,
                              const Experiment &exp);

/** Write @p system's collected trace as Chrome-trace JSON. */
void writeChromeTrace(std::ostream &os, const core::GpuSystem &system);

/**
 * Write the run's statistics as one compact JSON object:
 * {"schema": "ifp-stats-v1", "experiment-result": <writeResultJson>,
 *  "groups": [<StatGroup::dumpJson>...]}.
 */
void writeStatsJson(std::ostream &os, const Experiment &exp,
                    const core::GpuSystem &system,
                    const core::RunResult &result);

/**
 * Write the files requested by @p exp.observe (no-op when none).
 * Called by the runner after every experiment.
 */
void exportRunArtifacts(const Experiment &exp,
                        const core::GpuSystem &system,
                        const core::RunResult &result);

/**
 * Whether IFP_BENCH_TRACE=1 is set: benches then run with tracing
 * enabled (but no output files) to prove tracing does not perturb
 * results.
 */
bool traceSmokeEnabled();

} // namespace ifp::harness

#endif // IFP_HARNESS_OBSERVE_HH
