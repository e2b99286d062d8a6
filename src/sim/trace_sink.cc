/**
 * @file
 * Chrome-trace export for TraceSink.
 */

#include "sim/trace_sink.hh"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

#include "sim/json.hh"

namespace ifp::sim {

const char *
stallReasonName(StallReason reason)
{
    switch (reason) {
      case StallReason::Running: return "running";
      case StallReason::Spin: return "spin";
      case StallReason::Waiting: return "waiting";
      case StallReason::SaveRestore: return "saveRestore";
      case StallReason::DispatchQueue: return "dispatchQueue";
      case StallReason::Memory: return "memory";
    }
    return "?";
}

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::WgDispatched: return "wg-dispatched";
      case TraceEventKind::WgActivated: return "wg-activated";
      case TraceEventKind::WgStalled: return "wg-stalled";
      case TraceEventKind::WgSwitchOut: return "wg-switch-out";
      case TraceEventKind::WgSwitchedOut: return "wg-switched-out";
      case TraceEventKind::WgResumed: return "wg-resumed";
      case TraceEventKind::WgSwapIn: return "wg-swap-in";
      case TraceEventKind::WgCompleted: return "wg-completed";
      case TraceEventKind::WgPreempted: return "wg-preempted";
      case TraceEventKind::CondArmed: return "cond-armed";
      case TraceEventKind::CondFired: return "cond-fired";
      case TraceEventKind::AwgPredict: return "awg-predict";
      case TraceEventKind::CondSpilled: return "cond-spilled";
      case TraceEventKind::LogAbsorb: return "log-absorb";
      case TraceEventKind::LogDrain: return "log-drain";
      case TraceEventKind::CuOffline: return "cu-offline";
      case TraceEventKind::CuOnline: return "cu-online";
      case TraceEventKind::FaultInjected: return "fault-injected";
      case TraceEventKind::KernelEnqueued: return "kernel-enqueued";
      case TraceEventKind::KernelAdmitted: return "kernel-admitted";
      case TraceEventKind::KernelPreempted: return "kernel-preempted";
      case TraceEventKind::KernelCompleted: return "kernel-completed";
    }
    return "?";
}

namespace {

// Chrome-trace process ids: CU tracks live in the GPU process, the
// sync monitor and command processor each get their own process row.
constexpr int pidGpu = 0;
constexpr int pidSyncMon = 1;
constexpr int pidCp = 2;
constexpr int pidKernels = 3;

// Ticks are picoseconds; Chrome-trace "ts" is microseconds. Format
// with fixed precision so exports are byte-stable across platforms.
std::string
ticksToUs(Tick tick)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64,
                  tick / 1000000, tick % 1000000);
    return buf;
}

bool
isSyncMonKind(TraceEventKind kind)
{
    return kind == TraceEventKind::CondArmed ||
           kind == TraceEventKind::CondFired ||
           kind == TraceEventKind::AwgPredict ||
           kind == TraceEventKind::CondSpilled;
}

bool
isCpKind(TraceEventKind kind)
{
    return kind == TraceEventKind::LogAbsorb ||
           kind == TraceEventKind::LogDrain;
}

bool
isKernelKind(TraceEventKind kind)
{
    return kind == TraceEventKind::KernelEnqueued ||
           kind == TraceEventKind::KernelAdmitted ||
           kind == TraceEventKind::KernelPreempted ||
           kind == TraceEventKind::KernelCompleted;
}

void
writeMeta(json::Writer &w, int pid, int tid, const char *what,
          const std::string &name)
{
    w.beginObject().key("ph").value("M").key("pid").value(pid);
    w.key("tid").value(tid).key("ts").value(0).key("name").value(what);
    w.key("args").beginObject().key("name").value(name).endObject();
    w.endObject();
}

// One async-span stream per WG and category ("wg" lifetime spans,
// "wg-phase" lifecycle segments). Segments within a stream are strictly
// sequential, so begin/end pairing is unambiguous for the viewer.
struct PhaseTracker
{
    std::string open;   // currently open phase name, empty if none
    bool alive = false; // lifetime span open
};

void
writeAsyncAt(json::Writer &w, const char *ph, const char *cat, int id,
             int pid, const std::string &name, Tick tick)
{
    w.beginObject().key("ph").value(ph).key("cat").value(cat);
    w.key("id").value(id).key("pid").value(pid).key("tid").value(0);
    w.key("ts").number(ticksToUs(tick)).key("name").value(name);
    w.endObject();
}

void
writeAsync(json::Writer &w, const char *ph, const char *cat, int id,
           const std::string &name, Tick tick)
{
    writeAsyncAt(w, ph, cat, id, pidGpu, name, tick);
}

} // anonymous namespace

void
TraceSink::writeChromeTrace(std::ostream &os, unsigned num_cus) const
{
    json::Writer w(os);
    w.beginObject().key("schema").value("ifp-trace-v1");
    w.key("displayTimeUnit").value("ns").key("traceEvents").beginArray();

    // Track naming: GPU process with one thread per CU plus a
    // dispatcher row, and dedicated SyncMon / CP processes.
    writeMeta(w, pidGpu, 0, "process_name", "GPU");
    for (unsigned c = 0; c < num_cus; ++c)
        writeMeta(w, pidGpu, static_cast<int>(c), "thread_name",
                  "cu" + std::to_string(c));
    writeMeta(w, pidGpu, static_cast<int>(num_cus), "thread_name",
              "dispatcher");
    writeMeta(w, pidSyncMon, 0, "process_name", "SyncMon");
    writeMeta(w, pidSyncMon, 0, "thread_name", "conditions");
    writeMeta(w, pidCp, 0, "process_name", "CommandProcessor");
    writeMeta(w, pidCp, 0, "thread_name", "monitor-log");

    // One track per dispatch context under a "Kernels" process; ctx
    // ids are carried in the event value field.
    bool any_kernel_events = false;
    int max_ctx = -1;
    for (const TraceEvent &ev : eventsVec) {
        if (isKernelKind(ev.kind)) {
            any_kernel_events = true;
            max_ctx = std::max(max_ctx, static_cast<int>(ev.value));
        }
    }
    if (any_kernel_events) {
        writeMeta(w, pidKernels, 0, "process_name", "Kernels");
        for (int c = 0; c <= max_ctx; ++c)
            writeMeta(w, pidKernels, c, "thread_name",
                      "kernel" + std::to_string(c));
    }

    std::map<int, PhaseTracker> wgPhase;
    std::map<int, std::string> kernelPhase;  // ctx -> open span name
    Tick last_tick = 0;

    auto openPhase = [&](int wg, const std::string &phase, Tick tick) {
        auto &t = wgPhase[wg];
        if (t.open == phase)
            return;
        if (!t.open.empty())
            writeAsync(w, "e", "wg-phase", wg, t.open, tick);
        t.open = phase;
        if (!phase.empty())
            writeAsync(w, "b", "wg-phase", wg, phase, tick);
    };

    for (const TraceEvent &ev : eventsVec) {
        last_tick = std::max(last_tick, ev.tick);

        // Instant marker on the emitting component's track.
        int pid = pidGpu;
        int tid = ev.cu >= 0 ? ev.cu : static_cast<int>(num_cus);
        if (isSyncMonKind(ev.kind)) {
            pid = pidSyncMon;
            tid = 0;
        } else if (isCpKind(ev.kind)) {
            pid = pidCp;
            tid = 0;
        } else if (isKernelKind(ev.kind)) {
            pid = pidKernels;
            tid = static_cast<int>(ev.value);
        }
        std::string name = traceEventKindName(ev.kind);
        if (ev.wg >= 0)
            name += " wg" + std::to_string(ev.wg);
        w.beginObject().key("ph").value("i").key("s").value("t");
        w.key("pid").value(pid).key("tid").value(tid);
        w.key("ts").number(ticksToUs(ev.tick)).key("name").value(name);
        w.key("args").beginObject();
        w.key("wg").value(ev.wg).key("cu").value(ev.cu);
        if (ev.reason != StallReason::Running)
            w.key("reason").value(stallReasonName(ev.reason));
        if (ev.addr != 0)
            w.key("addr").value(ev.addr);
        if (ev.value != 0)
            w.key("value").value(ev.value);
        w.endObject().endObject();

        // Kernel async spans: queued (arrival to admission) and
        // resident (admission to completion) segments per context.
        if (isKernelKind(ev.kind)) {
            int ctx = static_cast<int>(ev.value);
            std::string &open = kernelPhase[ctx];
            auto switchSpan = [&](const char *next) {
                if (!open.empty())
                    writeAsyncAt(w, "e", "kernel", ctx, pidKernels,
                                 open, ev.tick);
                open = next;
                if (!open.empty())
                    writeAsyncAt(w, "b", "kernel", ctx, pidKernels,
                                 open, ev.tick);
            };
            if (ev.kind == TraceEventKind::KernelEnqueued)
                switchSpan("queued");
            else if (ev.kind == TraceEventKind::KernelAdmitted)
                switchSpan("resident");
            else if (ev.kind == TraceEventKind::KernelCompleted)
                switchSpan("");
            continue;
        }

        // WG async spans: lifetime plus lifecycle phase segments.
        if (ev.wg < 0)
            continue;
        auto &t = wgPhase[ev.wg];
        switch (ev.kind) {
          case TraceEventKind::WgDispatched:
            if (!t.alive) {
                t.alive = true;
                writeAsync(w, "b", "wg", ev.wg,
                           "wg" + std::to_string(ev.wg), ev.tick);
            }
            openPhase(ev.wg, "dispatch", ev.tick);
            break;
          case TraceEventKind::WgActivated:
            openPhase(ev.wg, "running", ev.tick);
            break;
          case TraceEventKind::WgStalled:
            openPhase(ev.wg, "stalled", ev.tick);
            break;
          case TraceEventKind::WgResumed:
            openPhase(ev.wg, ev.cu >= 0 ? "running" : "ready", ev.tick);
            break;
          case TraceEventKind::WgSwitchOut:
          case TraceEventKind::WgPreempted:
            openPhase(ev.wg, "save", ev.tick);
            break;
          case TraceEventKind::WgSwitchedOut:
            openPhase(ev.wg,
                      ev.reason == StallReason::Waiting ? "swapped-out"
                                                        : "ready",
                      ev.tick);
            break;
          case TraceEventKind::WgSwapIn:
            openPhase(ev.wg, "restore", ev.tick);
            break;
          case TraceEventKind::WgCompleted:
            openPhase(ev.wg, "", ev.tick);
            if (t.alive) {
                t.alive = false;
                writeAsync(w, "e", "wg", ev.wg,
                           "wg" + std::to_string(ev.wg), ev.tick);
            }
            break;
          default:
            break;
        }
    }

    // Close spans still open at the end of the run (deadlocked or
    // pre-empted WGs) so the viewer renders them to the last tick.
    for (auto &[wg, t] : wgPhase) {
        if (!t.open.empty())
            writeAsync(w, "e", "wg-phase", wg, t.open, last_tick);
        if (t.alive)
            writeAsync(w, "e", "wg", wg, "wg" + std::to_string(wg),
                       last_tick);
    }
    for (auto &[ctx, open] : kernelPhase) {
        if (!open.empty())
            writeAsyncAt(w, "e", "kernel", ctx, pidKernels, open,
                         last_tick);
    }

    w.endArray().endObject();
    os << '\n';
}

} // namespace ifp::sim
