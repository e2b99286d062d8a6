/**
 * @file
 * Deterministic fault-injection plans.
 *
 * A FaultPlan generalizes the one-shot oversubscription scenario into
 * scripted campaigns: repeated CU offline/online churn, SyncMon
 * capacity-pressure windows (conditions forced through the Monitor
 * Log), Monitor-Log jam windows (sustained log-full Mesa retries),
 * dropped/delayed resume notifications (widening the MonR window of
 * vulnerability), and CP firmware stall windows.
 *
 * Every fault is applied as an ordinary event-queue event, so a run
 * remains byte-reproducible from its `(plan, seed)` pair: the same
 * plan against the same configuration produces the same event
 * sequence, statistics and trace. Plans come from three sources —
 * hand-written text (parseFaultPlan), named presets
 * (faultPlanPreset), or the seeded chaos generator
 * (generateChaosPlan), which only emits survivable plans: every
 * offlined CU comes back, at least one CU stays online throughout,
 * and rescue timeouts are never disabled.
 */

#ifndef IFP_CORE_FAULT_PLAN_HH
#define IFP_CORE_FAULT_PLAN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace ifp::core {

/** The injectable fault classes. */
enum class FaultKind : std::uint8_t
{
    CuOffline,        //!< CU lost to kernel-level scheduling
    CuOnline,         //!< CU restored to the schedulable pool
    SyncMonPressure,  //!< window: registrations bypass the condition
                      //!< cache and spill straight to the Monitor Log
    LogJam,           //!< window: Monitor Log rejects appends, so
                      //!< spilling waits fail into Mesa retries
    DropResume,       //!< window: SyncMon resume notifications vanish
    DelayResume,      //!< window: SyncMon resumes arrive late
    CpStall,          //!< CP firmware housekeeping frozen for a window
};

/** Printable (and serialized) name of a FaultKind. */
const char *faultKindName(FaultKind kind);

/** Whether @p kind describes a window with an explicit end edge. */
bool faultKindWindowed(FaultKind kind);

/** One scheduled fault. */
struct FaultEvent
{
    FaultKind kind = FaultKind::CuOffline;
    /** Injection time, microseconds after launch. */
    std::uint64_t atUs = 0;
    /** Window length for windowed kinds, microseconds. */
    std::uint64_t durationUs = 0;
    /** Target CU for churn kinds; -1 means the last CU. */
    int cuId = -1;
    /** Kind-specific parameter (DelayResume: delay in GPU cycles). */
    std::uint64_t param = 0;

    bool operator==(const FaultEvent &) const = default;
};

/** A named, reproducible fault campaign. */
struct FaultPlan
{
    std::string name = "none";
    /** Generator seed (0 for hand-written plans). */
    std::uint64_t seed = 0;
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /** Largest CU id referenced by a churn event, or -1. */
    int maxCuId() const;

    /**
     * Whether the plan takes a CU offline: the run is oversubscribed
     * (the "oversubscribed" results field and the {scenario} path
     * placeholder).
     */
    bool losesCu() const;

    bool operator==(const FaultPlan &) const = default;

    /**
     * The §VI oversubscription scenario as a plan: CU @p cu_id (-1 =
     * last) goes offline @p loss_us microseconds after launch and,
     * when @p restore_us > @p loss_us, comes back at @p restore_us.
     */
    static FaultPlan cuLoss(std::uint64_t loss_us,
                            std::uint64_t restore_us = 0,
                            int cu_id = -1);
};

/** Knobs of the seeded chaos generator. */
struct ChaosSpec
{
    /** CUs of the target machine (bounds churn targets). */
    unsigned numCus = 8;
    /** Earliest fault injection time, microseconds. */
    std::uint64_t startUs = 5;
    /** Latest fault injection time, microseconds. */
    std::uint64_t horizonUs = 120;
    /** Offline/online churn pairs to attempt. */
    unsigned churnPairs = 3;
    /** CU offline window bounds, microseconds. */
    std::uint64_t minOfflineUs = 10;
    std::uint64_t maxOfflineUs = 40;
    /** Per-plan probabilities of the non-churn fault windows. */
    double pressureProb = 0.5;
    double logJamProb = 0.35;
    double dropResumeProb = 0.5;
    double delayResumeProb = 0.35;
    double cpStallProb = 0.35;
};

/**
 * Generate a survivable random plan from @p seed. Deterministic:
 * the same (spec, seed) always yields the same plan. Churn pairs
 * that would leave fewer than one CU online are dropped, and every
 * offline edge has a matching later online edge, so policies with
 * swap-in firmware and live rescue timeouts can always finish.
 */
FaultPlan generateChaosPlan(const ChaosSpec &spec, std::uint64_t seed);

/** Named preset plans for the CLI; fatal on an unknown name. */
FaultPlan faultPlanPreset(const std::string &name);

/** Names accepted by faultPlanPreset(). */
std::vector<std::string> faultPlanPresetNames();

/** Serialize @p plan to the text format parseFaultPlan() reads. */
std::string writeFaultPlan(const FaultPlan &plan);

/**
 * Parse the line-based plan format:
 *
 *   plan <name>
 *   seed <n>
 *   cu-offline at=<us> cu=<id>
 *   cu-online at=<us> cu=<id>
 *   syncmon-pressure at=<us> dur=<us>
 *   log-jam at=<us> dur=<us>
 *   drop-resume at=<us> dur=<us>
 *   delay-resume at=<us> dur=<us> cycles=<n>
 *   cp-stall at=<us> dur=<us>
 *
 * Blank lines and `#` comments are ignored. On malformed input
 * returns nullopt and sets @p error.
 */
std::optional<FaultPlan> parseFaultPlan(const std::string &text,
                                        std::string &error);

} // namespace ifp::core

#endif // IFP_CORE_FAULT_PLAN_HH
