/**
 * @file
 * Workload interface: the HeteroSync-style benchmark suite.
 *
 * A Workload allocates and initializes its buffers in a GpuSystem,
 * emits its kernel in one of the four synchronization styles (per the
 * active policy), validates the final memory image, and reports its
 * Table 2 characteristics.
 */

#ifndef IFP_WORKLOADS_WORKLOAD_HH
#define IFP_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "core/gpu_system.hh"
#include "core/policy.hh"
#include "isa/kernel.hh"

namespace ifp::workloads {

/** Synchronization-variable scope, in the HeteroSync sense. */
enum class Scope
{
    Global,  //!< one variable set contended by all G WGs
    Local,   //!< one variable set per group of L WGs ("per CU")
};

/** Geometry and behaviour knobs of one benchmark run. */
struct WorkloadParams
{
    unsigned numWgs = 64;        //!< G
    unsigned wgsPerGroup = 8;    //!< L (WGs per CU)
    unsigned wiPerWg = 64;       //!< n
    unsigned iters = 4;          //!< acquisitions / barrier rounds
    unsigned csValuCycles = 60;  //!< per-lane critical-section work
    core::SyncStyle style = core::SyncStyle::Busy;
    std::int64_t backoffMaxCycles = core::defaultSleepMaxBackoffCycles;

    /** Number of locality groups. */
    unsigned
    numGroups(Scope scope) const
    {
        return scope == Scope::Global
                   ? 1
                   : (numWgs + wgsPerGroup - 1) / wgsPerGroup;
    }

    /** WGs sharing one variable set. */
    unsigned
    groupSize(Scope scope) const
    {
        return scope == Scope::Global ? numWgs : wgsPerGroup;
    }
};

/**
 * @p base with what @p policy asks of codegen: its waiting style and
 * the Sleep policy's backoff cap. Every run of a workload under a
 * policy takes its params from here.
 */
inline WorkloadParams
paramsForPolicy(WorkloadParams base, const core::PolicyConfig &policy)
{
    base.style = core::styleFor(policy.policy);
    base.backoffMaxCycles =
        static_cast<std::int64_t>(policy.sleepMaxBackoffCycles);
    return base;
}

/** One row of the paper's Table 2 (symbolic, in terms of G/L/n). */
struct Table2Row
{
    std::string abbrev;
    std::string description;
    std::string granularity;       //!< WIs per sync var
    std::string numSyncVars;
    std::string condsPerVar;
    std::string waitersPerCond;
    std::string updatesUntilMet;
};

/** Base class of every benchmark. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Long name, e.g. "SpinMutex". */
    virtual std::string name() const = 0;

    /** Figure-axis abbreviation, e.g. "SPM_G". */
    virtual std::string abbrev() const = 0;

    /** Table 2 characteristics. */
    virtual Table2Row characteristics() const = 0;

    /**
     * Allocate + initialize buffers in @p system and emit the kernel
     * in the style @p params.style.
     */
    virtual isa::Kernel build(core::GpuSystem &system,
                              const WorkloadParams &params) const = 0;

    /** Check the final memory image of a completed run. */
    virtual bool validate(const mem::BackingStore &store,
                          const WorkloadParams &params,
                          std::string &error) const = 0;
};

using WorkloadPtr = std::unique_ptr<Workload>;

} // namespace ifp::workloads

#endif // IFP_WORKLOADS_WORKLOAD_HH
