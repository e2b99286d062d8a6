#include "core/fault_plan.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace ifp::core {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::CuOffline: return "cu-offline";
      case FaultKind::CuOnline: return "cu-online";
      case FaultKind::SyncMonPressure: return "syncmon-pressure";
      case FaultKind::LogJam: return "log-jam";
      case FaultKind::DropResume: return "drop-resume";
      case FaultKind::DelayResume: return "delay-resume";
      case FaultKind::CpStall: return "cp-stall";
    }
    return "?";
}

bool
faultKindWindowed(FaultKind kind)
{
    switch (kind) {
      case FaultKind::CuOffline:
      case FaultKind::CuOnline:
        return false;
      case FaultKind::SyncMonPressure:
      case FaultKind::LogJam:
      case FaultKind::DropResume:
      case FaultKind::DelayResume:
      case FaultKind::CpStall:
        return true;
    }
    return false;
}

int
FaultPlan::maxCuId() const
{
    int max_id = -1;
    for (const FaultEvent &ev : events) {
        if (ev.kind == FaultKind::CuOffline ||
            ev.kind == FaultKind::CuOnline) {
            max_id = std::max(max_id, ev.cuId);
        }
    }
    return max_id;
}

bool
FaultPlan::losesCu() const
{
    return std::any_of(events.begin(), events.end(),
                       [](const FaultEvent &ev) {
                           return ev.kind == FaultKind::CuOffline;
                       });
}

FaultPlan
FaultPlan::cuLoss(std::uint64_t loss_us, std::uint64_t restore_us,
                  int cu_id)
{
    FaultPlan plan;
    plan.name = "cuLoss";
    plan.events.push_back(
        FaultEvent{FaultKind::CuOffline, loss_us, 0, cu_id, 0});
    if (restore_us > loss_us) {
        plan.events.push_back(
            FaultEvent{FaultKind::CuOnline, restore_us, 0, cu_id, 0});
    }
    return plan;
}

FaultPlan
generateChaosPlan(const ChaosSpec &spec, std::uint64_t seed)
{
    ifp_assert(spec.numCus > 0, "chaos plan for a zero-CU machine");
    ifp_assert(spec.horizonUs > spec.startUs,
               "chaos horizon before its start");
    sim::Rng rng(seed);

    FaultPlan plan;
    plan.name = "chaos-" + std::to_string(seed);
    plan.seed = seed;

    // CU churn: random (cu, offline window) pairs. A pair is dropped
    // when its window would overlap enough other offline windows on
    // distinct CUs to leave no CU online — the generator only emits
    // survivable plans.
    struct Churn
    {
        unsigned cu;
        std::uint64_t from;
        std::uint64_t to;
    };
    std::vector<Churn> churn;
    for (unsigned i = 0; i < spec.churnPairs; ++i) {
        Churn c;
        c.cu = static_cast<unsigned>(rng.uniform(spec.numCus));
        c.from = rng.range(spec.startUs, spec.horizonUs);
        c.to = c.from + rng.range(spec.minOfflineUs, spec.maxOfflineUs);

        bool overlap_self = false;
        std::vector<unsigned> overlapping;
        for (const Churn &o : churn) {
            if (c.from >= o.to || c.to <= o.from)
                continue;
            if (o.cu == c.cu) {
                // Overlapping windows on one CU make the pairing of
                // offline and online edges ambiguous; keep the first.
                overlap_self = true;
                break;
            }
            if (std::find(overlapping.begin(), overlapping.end(),
                          o.cu) == overlapping.end())
                overlapping.push_back(o.cu);
        }
        if (overlap_self)
            continue;
        if (overlapping.size() + 2 > spec.numCus)
            continue;  // would leave no CU online
        churn.push_back(c);
    }
    for (const Churn &c : churn) {
        plan.events.push_back({FaultKind::CuOffline, c.from, 0,
                               static_cast<int>(c.cu), 0});
        plan.events.push_back({FaultKind::CuOnline, c.to, 0,
                               static_cast<int>(c.cu), 0});
    }

    auto window = [&](FaultKind kind, double prob, std::uint64_t min_dur,
                      std::uint64_t max_dur, std::uint64_t param) {
        // Consume the randomness unconditionally so each fault class
        // draws from a fixed position in the stream.
        double roll = rng.real();
        std::uint64_t at = rng.range(spec.startUs, spec.horizonUs);
        std::uint64_t dur = rng.range(min_dur, max_dur);
        if (roll < prob)
            plan.events.push_back({kind, at, dur, -1, param});
    };
    window(FaultKind::SyncMonPressure, spec.pressureProb, 20, 60, 0);
    window(FaultKind::LogJam, spec.logJamProb, 10, 30, 0);
    window(FaultKind::DropResume, spec.dropResumeProb, 10, 30, 0);
    window(FaultKind::DelayResume, spec.delayResumeProb, 10, 30,
           rng.range(2'000, 16'000));
    window(FaultKind::CpStall, spec.cpStallProb, 5, 20, 0);

    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.atUs < b.atUs;
                     });
    return plan;
}

FaultPlan
faultPlanPreset(const std::string &name)
{
    FaultPlan plan;
    plan.name = name;
    if (name == "legacy-cu-loss") {
        // The paper's §VI scenario as a plan: lose the last CU at
        // 50 us, never restore it.
        plan.events = {{FaultKind::CuOffline, 50, 0, -1, 0}};
    } else if (name == "cu-churn") {
        plan.events = {{FaultKind::CuOffline, 10, 0, -1, 0},
                       {FaultKind::CuOnline, 40, 0, -1, 0},
                       {FaultKind::CuOffline, 50, 0, 0, 0},
                       {FaultKind::CuOffline, 60, 0, -1, 0},
                       {FaultKind::CuOnline, 80, 0, 0, 0},
                       {FaultKind::CuOnline, 90, 0, -1, 0}};
    } else if (name == "syncmon-pressure") {
        plan.events = {{FaultKind::SyncMonPressure, 10, 60, -1, 0}};
    } else if (name == "log-jam") {
        plan.events = {{FaultKind::SyncMonPressure, 10, 80, -1, 0},
                       {FaultKind::LogJam, 20, 40, -1, 0}};
    } else if (name == "dropped-resume") {
        plan.events = {{FaultKind::DropResume, 5, 40, -1, 0}};
    } else if (name == "delayed-resume") {
        plan.events = {{FaultKind::DelayResume, 5, 40, -1, 8'000}};
    } else if (name == "cp-stall") {
        plan.events = {{FaultKind::CuOffline, 10, 0, -1, 0},
                       {FaultKind::CpStall, 15, 30, -1, 0},
                       {FaultKind::CuOnline, 60, 0, -1, 0}};
    } else if (name == "kitchen-sink") {
        plan.events = {{FaultKind::SyncMonPressure, 5, 80, -1, 0},
                       {FaultKind::CuOffline, 10, 0, -1, 0},
                       {FaultKind::LogJam, 20, 30, -1, 0},
                       {FaultKind::DropResume, 25, 25, -1, 0},
                       {FaultKind::CpStall, 30, 20, -1, 0},
                       {FaultKind::CuOnline, 70, 0, -1, 0},
                       {FaultKind::DelayResume, 75, 20, -1, 8'000}};
    } else {
        ifp_fatal("unknown fault-plan preset '%s' (presets: %s)",
                  name.c_str(), [] {
                      std::string all;
                      for (const std::string &p : faultPlanPresetNames())
                          all += (all.empty() ? "" : ", ") + p;
                      return all;
                  }().c_str());
    }
    return plan;
}

std::vector<std::string>
faultPlanPresetNames()
{
    return {"legacy-cu-loss", "cu-churn",       "syncmon-pressure",
            "log-jam",        "dropped-resume", "delayed-resume",
            "cp-stall",       "kitchen-sink"};
}

std::string
writeFaultPlan(const FaultPlan &plan)
{
    std::ostringstream os;
    os << "plan " << plan.name << "\n";
    if (plan.seed != 0)
        os << "seed " << plan.seed << "\n";
    for (const FaultEvent &ev : plan.events) {
        os << faultKindName(ev.kind) << " at=" << ev.atUs;
        if (faultKindWindowed(ev.kind))
            os << " dur=" << ev.durationUs;
        else
            os << " cu=" << ev.cuId;
        if (ev.kind == FaultKind::DelayResume)
            os << " cycles=" << ev.param;
        os << "\n";
    }
    return os.str();
}

namespace {

std::optional<FaultKind>
kindFromName(const std::string &name)
{
    for (FaultKind kind :
         {FaultKind::CuOffline, FaultKind::CuOnline,
          FaultKind::SyncMonPressure, FaultKind::LogJam,
          FaultKind::DropResume, FaultKind::DelayResume,
          FaultKind::CpStall}) {
        if (name == faultKindName(kind))
            return kind;
    }
    return std::nullopt;
}

} // anonymous namespace

std::optional<FaultPlan>
parseFaultPlan(const std::string &text, std::string &error)
{
    FaultPlan plan;
    plan.name = "parsed";
    std::istringstream is(text);
    std::string line;
    unsigned line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (std::size_t hash = line.find('#');
            hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word))
            continue;  // blank / comment-only line

        auto fail = [&](const std::string &what) {
            error = "line " + std::to_string(line_no) + ": " + what;
            return std::nullopt;
        };

        if (word == "plan") {
            if (!(ls >> plan.name))
                return fail("missing plan name");
            continue;
        }
        if (word == "seed") {
            if (!(ls >> plan.seed))
                return fail("missing seed value");
            continue;
        }

        std::optional<FaultKind> kind = kindFromName(word);
        if (!kind)
            return fail("unknown fault kind '" + word + "'");

        FaultEvent ev;
        ev.kind = *kind;
        bool have_at = false;
        std::string field;
        while (ls >> field) {
            std::size_t eq = field.find('=');
            if (eq == std::string::npos)
                return fail("expected key=value, got '" + field + "'");
            std::string key = field.substr(0, eq);
            std::string value = field.substr(eq + 1);
            std::istringstream vs(value);
            if (key == "at") {
                if (!(vs >> ev.atUs))
                    return fail("bad at= value '" + value + "'");
                have_at = true;
            } else if (key == "dur") {
                if (!(vs >> ev.durationUs))
                    return fail("bad dur= value '" + value + "'");
            } else if (key == "cu") {
                if (!(vs >> ev.cuId))
                    return fail("bad cu= value '" + value + "'");
            } else if (key == "cycles") {
                if (!(vs >> ev.param))
                    return fail("bad cycles= value '" + value + "'");
            } else {
                return fail("unknown key '" + key + "'");
            }
        }
        if (!have_at)
            return fail("missing at=");
        if (faultKindWindowed(ev.kind) && ev.durationUs == 0)
            return fail(std::string(faultKindName(ev.kind)) +
                        " needs dur=");
        plan.events.push_back(ev);
    }
    error.clear();
    return plan;
}

} // namespace ifp::core
