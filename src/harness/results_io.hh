/**
 * @file
 * Machine-readable result output: serialize an (Experiment,
 * RunResult) pair as one JSON record (schema "ifp-result-v1") for
 * plotting scripts and CI comparisons. The format itself lives in
 * sim/json.hh.
 */

#ifndef IFP_HARNESS_RESULTS_IO_HH
#define IFP_HARNESS_RESULTS_IO_HH

#include <ostream>

#include "harness/runner.hh"
#include "sim/json.hh"

namespace ifp::harness {

/** Write one experiment + result as a compact JSON object. */
void writeResultJson(std::ostream &os, const Experiment &exp,
                     const core::RunResult &result);

/** The same object as the next value of @p w. */
void writeResultJson(sim::json::Writer &w, const Experiment &exp,
                     const core::RunResult &result);

} // namespace ifp::harness

#endif // IFP_HARNESS_RESULTS_IO_HH
