/**
 * @file
 * Error and status reporting helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 * panic()  - an internal simulator invariant was violated; aborts.
 * fatal()  - the user asked for something unsupported; exits cleanly.
 * warn()   - something is questionable but simulation continues.
 *
 * Simulator events are observed through the per-run TraceSink
 * (sim/trace_sink.hh), not through text logging.
 */

#ifndef IFP_SIM_LOGGING_HH
#define IFP_SIM_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace ifp::sim {

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));
void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

#define ifp_panic(...) \
    ::ifp::sim::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define ifp_fatal(...) \
    ::ifp::sim::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define ifp_assert(cond, ...)                                         \
    do {                                                              \
        if (!(cond))                                                  \
            ::ifp::sim::panicImpl(__FILE__, __LINE__, __VA_ARGS__);   \
    } while (0)

} // namespace ifp::sim

#endif // IFP_SIM_LOGGING_HH
