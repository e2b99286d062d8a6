#include "analysis/lint.hh"

#include <algorithm>
#include <ostream>
#include <tuple>

#include "analysis/cfg.hh"
#include "analysis/passes.hh"
#include "sim/json.hh"

namespace ifp::analysis {

unsigned
baselineResidency(const isa::Kernel &kernel, unsigned num_cus,
                  unsigned simds_per_cu, unsigned wavefronts_per_simd,
                  unsigned lds_bytes_per_cu)
{
    unsigned wf_per_wg = kernel.wavefrontsPerWg();
    unsigned per_cu = kernel.maxWgsPerCu;
    if (wf_per_wg > 0) {
        per_cu = std::min(per_cu,
                          simds_per_cu * wavefronts_per_simd /
                              wf_per_wg);
    }
    if (kernel.ldsBytes > 0)
        per_cu = std::min(per_cu, lds_bytes_per_cu / kernel.ldsBytes);
    return std::min(kernel.numWgs, num_cus * per_cu);
}

LaunchContext
makeLaunchContext(const isa::Kernel &kernel, unsigned num_cus,
                  unsigned simds_per_cu, unsigned wavefronts_per_simd,
                  unsigned lds_bytes_per_cu)
{
    LaunchContext ctx;
    ctx.numWgs = kernel.numWgs;
    ctx.wavefrontsPerWg = kernel.wavefrontsPerWg();
    ctx.args.assign(kernel.args.begin(), kernel.args.end());
    ctx.maxResidentWgs =
        baselineResidency(kernel, num_cus, simds_per_cu,
                          wavefronts_per_simd, lds_bytes_per_cu);
    return ctx;
}

Report
runLint(const isa::Kernel &kernel, const LaunchContext &launch)
{
    Report report;
    report.kernel = kernel.name;

    Cfg cfg(kernel.code);
    Dataflow df(cfg, launch);
    PassContext ctx{kernel, cfg, df};

    runStructuralPass(ctx, report.diagnostics);
    runBarrierDivergencePass(ctx, report.diagnostics);
    runWovPass(ctx, report.diagnostics);
    runLostWakeupPass(ctx, report.diagnostics);
    runProgressPass(ctx, report.diagnostics);
    runInterferencePass(ctx, report.diagnostics);

    for (Diagnostic &d : report.diagnostics) {
        for (const isa::LintSuppression &s : kernel.lintSuppressions) {
            if (s.code == d.code) {
                d.suppressed = true;
                d.suppressReason = s.reason;
                d.severity = Severity::Note;
                break;
            }
        }
    }

    std::sort(report.diagnostics.begin(), report.diagnostics.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  // Kernel-level findings (pc -1) sort last.
                  unsigned pa = a.pc < 0 ? ~0U : unsigned(a.pc);
                  unsigned pb = b.pc < 0 ? ~0U : unsigned(b.pc);
                  return std::tie(pa, a.pass, a.code, a.message) <
                         std::tie(pb, b.pass, b.code, b.message);
              });
    return report;
}

void
printReport(const Report &report, std::ostream &os)
{
    unsigned errors = report.count(Severity::Error);
    unsigned warnings = report.count(Severity::Warning);
    unsigned suppressed = 0;
    for (const Diagnostic &d : report.diagnostics)
        suppressed += d.suppressed ? 1 : 0;

    os << report.kernel << ": " << errors << " error(s), " << warnings
       << " warning(s)";
    if (suppressed > 0)
        os << ", " << suppressed << " suppressed";
    os << "\n";
    for (const Diagnostic &d : report.diagnostics) {
        os << "  [" << severityName(d.severity) << "] "
           << d.pass << "/" << d.code;
        if (d.pc >= 0)
            os << " pc " << d.pc << " `" << d.disasm << "`";
        os << ": " << d.message << "\n";
        if (d.suppressed)
            os << "      suppressed: " << d.suppressReason << "\n";
        else if (!d.hint.empty())
            os << "      hint: " << d.hint << "\n";
    }
}

void
writeReportsJson(const std::vector<Report> &reports, std::ostream &os)
{
    sim::json::Writer w(os, sim::json::Layout::Indented);
    w.beginObject().key("schema").value("ifp-lint-v1");
    w.key("kernels").beginArray();
    for (const Report &r : reports) {
        w.beginObject().key("kernel").value(r.kernel);
        w.key("errors").value(r.count(Severity::Error));
        w.key("warnings").value(r.count(Severity::Warning));
        w.key("diagnostics").beginArray();
        for (const Diagnostic &d : r.diagnostics) {
            w.beginObject().key("pass").value(d.pass);
            w.key("code").value(d.code);
            w.key("severity").value(severityName(d.severity));
            w.key("pc").value(d.pc).key("message").value(d.message);
            w.key("disasm").value(d.disasm).key("hint").value(d.hint);
            w.key("suppressed").value(d.suppressed);
            if (d.suppressed)
                w.key("suppressReason").value(d.suppressReason);
            w.endObject();
        }
        w.endArray().endObject();
    }
    w.endArray().endObject();
    os << '\n';
}

} // namespace ifp::analysis
