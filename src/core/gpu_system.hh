/**
 * @file
 * GpuSystem: the fully composed simulated APU.
 *
 * Builds the Table 1 machine (CUs with L1s, banked shared L2, DRAM,
 * DMA, Command Processor, WG dispatcher), installs the selected
 * waiting-policy controller, runs one kernel, and harvests a
 * RunResult. Also implements:
 *
 *  - the scripted fault plan, including the oversubscription
 *    scenario (§VI): after a configurable delay one CU is taken
 *    offline and its resident WGs are pre-empted,
 *  - deadlock detection: the kernel is declared deadlocked when no
 *    memory value changes, no WG completes and no context switch
 *    happens for a whole detection window (busy-wait spinning does
 *    not advance any of these),
 *  - a bump allocator for workload buffers in global memory.
 */

#ifndef IFP_CORE_GPU_SYSTEM_HH
#define IFP_CORE_GPU_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/fault_plan.hh"
#include "core/liveness.hh"
#include "core/policy.hh"
#include "core/run_result.hh"
#include "cp/command_processor.hh"
#include "gpu/compute_unit.hh"
#include "gpu/dispatcher.hh"
#include "gpu/gpu_config.hh"
#include "mem/backing_store.hh"
#include "mem/dma.hh"
#include "mem/dram.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"
#include "sim/event_queue.hh"
#include "sim/sched_oracle.hh"
#include "sim/trace_sink.hh"
#include "syncmon/sync_monitor.hh"
#include "syncmon/timeout_controller.hh"

namespace ifp::core {

/** Pre-dispatch verification knobs. */
struct DispatchOptions
{
    /**
     * Run the static kernel verifier (analysis/lint — the same passes
     * tools/ifplint exposes) before dispatch. Diagnostics are printed
     * through warn(); an unsuppressed error throws
     * std::invalid_argument instead of launching a kernel the
     * verifier can prove malformed. Off by default: the registry is
     * gated by the ifplint ctest instead, and ad-hoc test kernels may
     * deliberately be broken.
     */
    bool lintBeforeDispatch = false;
    /** With lintBeforeDispatch: unsuppressed warnings throw, too. */
    bool lintWerror = false;
};

/** Scenario and machine configuration of one run. */
struct RunConfig
{
    gpu::GpuConfig gpu;
    cp::CpConfig cp;
    PolicyConfig policy;
    DispatchOptions dispatch;

    /**
     * Scripted fault-injection campaign (core/fault_plan.hh); the §VI
     * oversubscribed experiment is FaultPlan::cuLoss(). Every event is
     * scheduled on the event queue before simulation starts, so runs
     * stay byte-reproducible.
     */
    FaultPlan faultPlan;

    /**
     * Schedule-choice oracle (sim/sched_oracle.hh), non-owning; must
     * outlive the run. Null (the default) keeps the stock
     * deterministic schedule with zero overhead — every decision
     * site is byte-identical to the pre-oracle simulator. The
     * explore drivers (src/explore) install random-walk / replay
     * oracles here to steer the dispatcher, the CU wavefront
     * arbiters, SyncMon resume ordering and CP housekeeping through
     * alternative legal schedules.
     */
    sim::SchedOracle *schedOracle = nullptr;

    /** No-progress window that declares deadlock, in GPU cycles. */
    sim::Cycles deadlockWindowCycles = 1'000'000;
    /** Absolute simulation budget, in GPU cycles. */
    sim::Cycles maxCycles = 400'000'000;

    /**
     * Collect structured TraceEvents during the run (see
     * sim/trace_sink.hh). Off by default: every emission site then
     * reduces to a null-pointer test, so untraced runs pay nothing.
     */
    bool traceEnabled = false;
};

/** Checks the final memory image of a run. */
using Validator =
    std::function<bool(const mem::BackingStore &, std::string &)>;

/** Per-kernel outcome of a multi-kernel serve() run. */
struct KernelRunStat
{
    int ctxId = -1;
    std::string kernelName;
    std::string tenant;
    int priority = 0;
    bool completed = false;

    /// @name Lifecycle, in GPU cycles from simulation start
    /// @{
    sim::Cycles enqueueCycle = 0;
    sim::Cycles admitCycle = 0;
    sim::Cycles firstDispatchCycle = 0;   //!< 0 when never dispatched
    sim::Cycles completeCycle = 0;        //!< 0 when not completed
    /** Admission queueing delay (admit - enqueue). */
    sim::Cycles queueCycles = 0;
    /** Turnaround (complete - enqueue); 0 when not completed. */
    sim::Cycles turnaroundCycles = 0;
    /** Deadline given and missed (or the kernel never completed). */
    bool sloMissed = false;
    /// @}

    /// @name Per-kernel scheduling activity
    /// @{
    std::uint64_t dispatches = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t cusGained = 0;
    std::uint64_t cusLost = 0;
    /// @}

    unsigned wgsCompleted = 0;
    unsigned numWgs = 0;
};

/** Result of a multi-kernel serve() run. */
struct ServeResult
{
    RunResult run;
    /** One entry per enqueued kernel, in ctx-id (creation) order. */
    std::vector<KernelRunStat> kernels;
};

/** The composed simulated APU. */
class GpuSystem
{
  public:
    /**
     * Composes the machine. Throws std::invalid_argument, naming the
     * field, when the machine has no CU, the fault plan references a
     * CU the machine does not have (a churn target out of range), the
     * Timeout interval is 0,
     * the Sleep backoff cap is outside 1..INT64_MAX (the cap the
     * kernel loads into a signed register), or the SyncMon set count
     * is not a power of two — the construction-time errors a caller
     * can usefully catch, unlike the internal ifp_fatal paths.
     */
    explicit GpuSystem(const RunConfig &cfg);
    ~GpuSystem();

    GpuSystem(const GpuSystem &) = delete;
    GpuSystem &operator=(const GpuSystem &) = delete;

    /** Allocate zero-initialized global memory for workload buffers. */
    mem::Addr allocate(std::uint64_t bytes, std::uint64_t align = 64);

    /** Functional memory (workload initialization / validation). */
    mem::BackingStore &memory() { return store; }

    /**
     * Run @p kernel to completion, deadlock or budget exhaustion.
     * Thin wrapper over enqueueKernel() + the shared run loop; a
     * single-kernel run is byte-identical to the pre-multi-tenant
     * simulator.
     */
    RunResult run(const isa::Kernel &kernel,
                  const Validator &validator = nullptr);

    /// @name Multi-kernel serving
    /// @{

    /**
     * Enqueue @p kernel at the current tick (before serve(): time 0).
     * The context arrives synchronously. @return the context id.
     * Throws std::invalid_argument, naming the CU's limits, when no
     * CU can host one of its WGs (analysis::wgsPerCu() is 0), and
     * when the pre-dispatch lint gate (DispatchOptions) rejects it.
     */
    int enqueueKernel(const isa::Kernel &kernel,
                      const gpu::LaunchOptions &opts = {});

    /**
     * Enqueue @p kernel arriving at absolute tick @p at (>= now). The
     * context is pre-created so the id is available immediately; the
     * arrival fires as an ordinary event, keeping runs deterministic.
     * Throws as enqueueKernel() does.
     */
    int enqueueKernelAt(const isa::Kernel &kernel,
                        const gpu::LaunchOptions &opts, sim::Tick at);

    /**
     * Run every enqueued kernel to completion, deadlock or budget
     * exhaustion, and report per-kernel turnaround/preemption stats
     * alongside the machine-level RunResult.
     */
    ServeResult serve(const Validator &validator = nullptr);
    /// @}

    /// @name Introspection (tests, examples)
    /// @{
    gpu::Dispatcher &dispatcher() { return *dispatch; }
    cp::CommandProcessor &commandProcessor() { return *cp; }
    mem::L2Cache &l2() { return *l2cache; }
    sim::EventQueue &eventq() { return eq; }
    const RunConfig &config() const { return cfg; }

    /** The run's trace sink, or nullptr when tracing is disabled. */
    const sim::TraceSink *traceSink() const { return sink.get(); }
    /// @}

    /** Dump every component's statistics. */
    void dumpStats(std::ostream &os) const;

    /** Visit every component's StatGroup (exporters, stats-JSON). */
    void forEachStatGroup(
        const std::function<void(const sim::StatGroup &)> &fn) const;

  private:
    RunConfig cfg;
    /**
     * Slab pool backing every MemRequest of the run. Declared before
     * the event queue (and thus destroyed after it): pending events
     * and device queues may hold MemRequestPtrs whose final release
     * recycles into the pool. Its destructor asserts nothing leaked.
     */
    mem::MemRequestPool pool;
    sim::EventQueue eq;
    mem::BackingStore store;

    std::unique_ptr<mem::Dram> dram;
    std::unique_ptr<mem::L2Cache> l2cache;
    std::vector<std::unique_ptr<mem::L1Cache>> l1s;
    std::vector<std::unique_ptr<gpu::ComputeUnit>> cus;
    std::unique_ptr<mem::DmaEngine> dma;
    std::unique_ptr<cp::CommandProcessor> cp;
    std::unique_ptr<gpu::Dispatcher> dispatch;
    std::unique_ptr<syncmon::SyncMonController> monitor;
    std::unique_ptr<syncmon::TimeoutController> timeout;
    std::unique_ptr<sim::TraceSink> sink;

    mem::Addr heapNext = 0x1000'0000ULL;
    std::uint64_t faultsApplied = 0;

    /**
     * The enqueue checks: some CU can host a WG of @p kernel, and the
     * pre-dispatch lint gate (DispatchOptions) passes it.
     */
    void checkKernel(const isa::Kernel &kernel) const;

    /**
     * The shared run loop: schedule faults, simulate until every
     * enqueued context completes (or deadlock / budget), close the
     * books and harvest. run() and serve() both end here.
     */
    RunResult finishRun(const Validator &validator);

    /** Resolve a plan CU id (-1 = last CU) to a concrete index. */
    unsigned resolveCuId(int cu_id) const;

    /** Schedule cfg.faultPlan on the queue. */
    void scheduleFaults();

    /** Apply one fault edge (begin or end of a window). */
    void applyFault(const FaultEvent &event, bool begin);

    /** Snapshot every waiting WG for the liveness oracle. */
    std::vector<WaiterProbe> waiterProbes() const;

    /** Monotone Mesa-retry/spin counter (livelock signal). */
    std::uint64_t retryActivity() const;

    void harvest(RunResult &result) const;
};

} // namespace ifp::core

#endif // IFP_CORE_GPU_SYSTEM_HH
