/**
 * @file
 * Lint driver: run every verifier pass over a kernel and collect the
 * report.
 *
 * The analysis layer depends only on isa/ and sim/; callers that know
 * the machine (tools/ifplint, the dispatcher's lintBeforeDispatch
 * hook) describe the launch with a plain LaunchContext, for which
 * makeLaunchContext() mirrors the dispatcher's Baseline occupancy
 * arithmetic (ComputeUnit::canHost).
 *
 * Kernel-scoped suppressions (isa::Kernel::lintSuppressions) are
 * applied here: a matching diagnostic stays in the report but is
 * demoted to a suppressed Note, so --Werror gates can hold while the
 * intentionally racy emitters (the MonR/MonRS window-of-vulnerability
 * patterns) stay annotated rather than hidden.
 *
 * Reports serialize to JSON deterministically: diagnostics are sorted
 * by (pc, pass, code, message) and all output is plain ASCII, so two
 * runs over the same kernels are byte-identical.
 */

#ifndef IFP_ANALYSIS_LINT_HH
#define IFP_ANALYSIS_LINT_HH

#include <iosfwd>
#include <vector>

#include "analysis/dataflow.hh"
#include "analysis/diagnostics.hh"
#include "isa/kernel.hh"

namespace ifp::analysis {

/**
 * WGs of @p kernel concurrently resident under Baseline (no swap):
 * min(G, CUs * per-CU occupancy), with per-CU occupancy bounded by
 * the kernel's maxWgsPerCu, the SIMD wavefront slots and the LDS
 * capacity — the same limits ComputeUnit::canHost enforces.
 */
unsigned baselineResidency(const isa::Kernel &kernel, unsigned num_cus,
                           unsigned simds_per_cu,
                           unsigned wavefronts_per_simd,
                           unsigned lds_bytes_per_cu);

/** Build the LaunchContext for @p kernel on the described machine. */
LaunchContext makeLaunchContext(const isa::Kernel &kernel,
                                unsigned num_cus, unsigned simds_per_cu,
                                unsigned wavefronts_per_simd,
                                unsigned lds_bytes_per_cu);

/** Run all passes over @p kernel and return the (sorted) report. */
Report runLint(const isa::Kernel &kernel, const LaunchContext &launch);

/** Human-readable report (one line per diagnostic plus hints). */
void printReport(const Report &report, std::ostream &os);

/**
 * Deterministic indented JSON for a batch of reports:
 * {"schema": "ifp-lint-v1", "kernels": [...]}.
 */
void writeReportsJson(const std::vector<Report> &reports,
                      std::ostream &os);

} // namespace ifp::analysis

#endif // IFP_ANALYSIS_LINT_HH
