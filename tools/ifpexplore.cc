/**
 * @file
 * ifpexplore — schedule-space exploration over the litmus suite.
 *
 * Drives every litmus (workloads/litmus.hh) through many legal
 * schedules per waiting policy (src/explore) and cross-validates the
 * observed verdicts against the annotated progress model, plus the
 * static ifplint expectations. Output is deterministic: the same
 * command line produces byte-identical bytes.
 *
 * Examples:
 *   ifpexplore --list
 *   ifpexplore --litmus all --schedules 50 --json
 *   ifpexplore --litmus mutual-pair --policy Timeout --schedules 100
 *   ifpexplore --litmus circular-wait --exhaustive
 *
 * Exit status: 0 when every exercised cell agrees with its
 * annotation (and no Complete run failed validation), 1 otherwise.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hh"
#include "explore/explore.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workloads/litmus.hh"

namespace {

using ifp::cli::parseCount;
using ifp::cli::parsePolicy;
using ifp::cli::styleName;
using ifp::core::Policy;
using ifp::core::Verdict;

struct Options
{
    std::string litmus = "all";
    std::string policy = "all";
    unsigned schedules = 20;
    std::uint64_t seed = 1;
    bool exhaustive = false;
    bool por = false;
    unsigned maxSchedules = 200;
    unsigned maxDepth = 12;
    std::uint64_t maxCycles = 30'000'000;
    bool json = false;
    bool list = false;
    bool noLint = false;
};

void
usage()
{
    std::cout <<
        "ifpexplore — litmus schedule-space exploration\n"
        "\n"
        "  --list                 list litmuses and exit\n"
        "  --litmus NAME|all      litmus to explore (default: all)\n"
        "  --policy NAME|all      policy filter (default: all\n"
        "                         annotated policies)\n"
        "  --schedules N          random schedules per cell, on top\n"
        "                         of the stock one (default: 20)\n"
        "  --seed S               random-walk seed (default: 1);\n"
        "                         schedule i of a cell is derived\n"
        "                         from (litmus, policy, S, i)\n"
        "  --exhaustive           bounded exhaustive DFS per cell\n"
        "                         instead of the random walk\n"
        "  --por                  partial-order reduction: skip\n"
        "                         alternatives the static\n"
        "                         interference analysis proves\n"
        "                         commute (exhaustive mode only)\n"
        "  --max-schedules N      exhaustive schedule cap (200)\n"
        "  --max-depth N          exhaustive branch depth cap (12)\n"
        "  --max-cycles N         per-schedule cycle budget\n"
        "                         (default 30000000; unclassifiable\n"
        "                         runs report EXHAUSTED)\n"
        "  --no-lint              skip the static ifplint cross-check\n"
        "  --json                 machine-readable (deterministic)\n";
}

void
printVerdictCounts(std::ostream &os,
                   const ifp::explore::VerdictCounts &counts)
{
    bool first = true;
    for (std::size_t v = 0; v < counts.size(); ++v) {
        if (counts[v] == 0)
            continue;
        os << (first ? "" : " ")
           << ifp::core::verdictName(static_cast<Verdict>(v)) << "x"
           << counts[v];
        first = false;
    }
}

void
writeVerdictCounts(ifp::sim::json::Writer &w,
                   const ifp::explore::VerdictCounts &counts)
{
    w.beginObject();
    for (std::size_t v = 0; v < counts.size(); ++v) {
        if (counts[v] != 0)
            w.key(ifp::core::verdictName(static_cast<Verdict>(v)))
                .value(counts[v]);
    }
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                ifp_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--litmus") {
            opt.litmus = value();
        } else if (arg == "--policy") {
            opt.policy = value();
        } else if (arg == "--schedules") {
            opt.schedules =
                parseCount<unsigned>(arg.c_str(), value().c_str());
        } else if (arg == "--seed") {
            opt.seed =
                parseCount<std::uint64_t>(arg.c_str(), value().c_str());
        } else if (arg == "--exhaustive") {
            opt.exhaustive = true;
        } else if (arg == "--por") {
            opt.por = true;
        } else if (arg == "--max-schedules") {
            opt.maxSchedules =
                parseCount<unsigned>(arg.c_str(), value().c_str());
        } else if (arg == "--max-depth") {
            opt.maxDepth =
                parseCount<unsigned>(arg.c_str(), value().c_str());
        } else if (arg == "--max-cycles") {
            opt.maxCycles =
                parseCount<std::uint64_t>(arg.c_str(), value().c_str());
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--no-lint") {
            opt.noLint = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown option " << arg << "\n";
            usage();
            return 2;
        }
    }

    if (opt.list) {
        for (const auto &spec : ifp::workloads::litmusSpecs()) {
            std::cout << spec.name << "  (" << spec.numWgs
                      << " WGs, " << spec.numCus << " CU"
                      << (spec.numCus == 1 ? "" : "s")
                      << ", occupancy " << spec.maxWgsPerCu
                      << ")  " << spec.description << "\n";
        }
        return 0;
    }

    std::vector<std::string> names;
    if (opt.litmus == "all")
        names = ifp::workloads::litmusNames();
    else
        names.push_back(opt.litmus);

    const bool allPolicies = opt.policy == "all";
    const Policy onlyPolicy =
        allPolicies ? Policy::Baseline : parsePolicy(opt.policy);

    bool ok = true;
    std::ostream &os = std::cout;
    ifp::sim::json::Writer w(os, ifp::sim::json::Layout::Indented);
    if (opt.json) {
        w.beginObject().key("schema").value("ifp-explore-v1");
        w.key("litmuses").beginArray();
    }

    for (const std::string &name : names) {
        auto litmus = ifp::workloads::makeLitmus(name);
        const auto &spec = litmus->spec();

        if (opt.json) {
            w.beginObject().key("name").value(spec.name);
            w.key("cells").beginArray();
        } else {
            os << "== " << spec.name << " ==\n";
        }

        if (opt.exhaustive) {
            ifp::explore::ExhaustiveConfig cfg;
            cfg.maxSchedules = opt.maxSchedules;
            cfg.maxPrefixDepth = opt.maxDepth;
            cfg.por = opt.por;
            cfg.run.maxCycles = opt.maxCycles;
            for (const auto &[policy, expected] : spec.expected) {
                if (!allPolicies && policy != onlyPolicy)
                    continue;
                ifp::explore::ExhaustiveResult r =
                    ifp::explore::exhaustive(*litmus, policy, cfg);
                bool cellOk = true;
                for (std::size_t v = 0; v < r.counts.size(); ++v) {
                    if (r.counts[v] != 0 &&
                        v != static_cast<std::size_t>(expected))
                        cellOk = false;
                }
                ok = ok && cellOk;
                if (opt.json) {
                    w.beginObject();
                    w.key("policy").value(ifp::core::policyName(policy));
                    w.key("expected").value(
                        ifp::core::verdictName(expected));
                    w.key("observed");
                    writeVerdictCounts(w, r.counts);
                    w.key("schedules").value(r.schedulesRun);
                    w.key("pruned").value(r.pruned);
                    w.key("porSkipped").value(r.porSkipped);
                    w.key("frontierExhausted").value(r.frontierExhausted);
                    w.key("ok").value(cellOk).endObject();
                } else {
                    os << "  " << ifp::core::policyName(policy)
                       << ": expected "
                       << ifp::core::verdictName(expected)
                       << ", observed ";
                    printVerdictCounts(os, r.counts);
                    os << " over " << r.schedulesRun
                       << " schedules (pruned " << r.pruned
                       << ", por-skipped " << r.porSkipped
                       << (r.frontierExhausted
                               ? ", frontier exhausted"
                               : ", schedule cap hit")
                       << ") -> "
                       << (cellOk ? "OK" : "MISMATCH") << "\n";
                }
            }
        } else {
            ifp::explore::LitmusRunConfig run;
            run.maxCycles = opt.maxCycles;
            auto cells = ifp::explore::crossValidate(
                *litmus, opt.seed, opt.schedules, run);
            for (const auto &cell : cells) {
                if (!allPolicies && cell.policy != onlyPolicy)
                    continue;
                ok = ok && cell.ok;
                if (opt.json) {
                    w.beginObject();
                    w.key("policy").value(
                        ifp::core::policyName(cell.policy));
                    w.key("expected").value(
                        ifp::core::verdictName(cell.expected));
                    w.key("observed");
                    writeVerdictCounts(w, cell.observed);
                    w.key("schedules").value(cell.schedules);
                    w.key("invalid").value(cell.invalid);
                    w.key("ok").value(cell.ok).endObject();
                } else {
                    os << "  " << ifp::core::policyName(cell.policy)
                       << ": expected "
                       << ifp::core::verdictName(cell.expected)
                       << ", observed ";
                    printVerdictCounts(os, cell.observed);
                    os << " over " << cell.schedules << " schedules"
                       << " -> " << (cell.ok ? "OK" : "MISMATCH")
                       << "\n";
                }
            }
        }

        if (opt.json)
            w.endArray();

        if (!opt.noLint) {
            auto lintCells = ifp::explore::lintCrossCheck(*litmus);
            if (opt.json)
                w.key("lint").beginArray();
            for (const auto &cell : lintCells) {
                ok = ok && cell.ok;
                if (opt.json) {
                    w.beginObject();
                    w.key("style").value(styleName(cell.style));
                    w.key("unexpected").beginArray();
                    for (const std::string &c : cell.unexpected)
                        w.value(c);
                    w.endArray().key("missing").beginArray();
                    for (const std::string &c : cell.missing)
                        w.value(c);
                    w.endArray().key("ok").value(cell.ok).endObject();
                } else if (!cell.ok) {
                    os << "  lint " << styleName(cell.style) << ":";
                    for (const auto &c : cell.unexpected)
                        os << " unexpected:" << c;
                    for (const auto &c : cell.missing)
                        os << " missing:" << c;
                    os << " -> MISMATCH\n";
                }
            }
            if (opt.json)
                w.endArray();
            else
                os << "  lint: "
                   << (std::all_of(lintCells.begin(),
                                   lintCells.end(),
                                   [](const auto &c) {
                                       return c.ok;
                                   })
                           ? "OK"
                           : "MISMATCH")
                   << " across 4 styles\n";
        }

        if (opt.json)
            w.endObject();
    }

    if (opt.json) {
        w.endArray().key("ok").value(ok).endObject();
        os << '\n';
    } else {
        os << (ok ? "all cells agree with their annotations\n"
                  : "ANNOTATION MISMATCH (see above)\n");
    }
    return ok ? 0 : 1;
}
