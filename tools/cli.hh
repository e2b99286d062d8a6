/**
 * @file
 * Command-line helpers shared by ifpsim, ifplint and ifpexplore.
 */

#ifndef IFP_TOOLS_CLI_HH
#define IFP_TOOLS_CLI_HH

#include <charconv>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "core/policy.hh"
#include "sim/logging.hh"

namespace ifp::cli {

/**
 * The value of numeric flag @p flag: the whole of @p text as a
 * decimal integer in [@p min, @p max]. Anything else (a sign,
 * trailing characters, overflow) is fatal and names the flag.
 */
template <typename T>
T
parseCount(const char *flag, const char *text, T min = 0,
           T max = std::numeric_limits<T>::max())
{
    static_assert(std::is_unsigned_v<T>);
    T value{};
    const char *end = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || value < min || value > max) {
        ifp_fatal("%s expects an integer in [%s, %s], got '%s'", flag,
                  std::to_string(min).c_str(),
                  std::to_string(max).c_str(), text);
    }
    return value;
}

/** The waiting policy named @p name; fatal when there is none. */
inline core::Policy
parsePolicy(const std::string &name)
{
    using core::Policy;
    for (Policy p :
         {Policy::Baseline, Policy::Sleep, Policy::Timeout,
          Policy::MonRSAll, Policy::MonRAll, Policy::MonNRAll,
          Policy::MonNROne, Policy::Awg, Policy::MinResume}) {
        if (name == core::policyName(p))
            return p;
    }
    ifp_fatal("unknown policy '%s' (try Baseline, Sleep, Timeout, "
              "MonRS-All, MonR-All, MonNR-All, MonNR-One, MinResume, "
              "AWG)", name.c_str());
}

/** Printable name of a codegen style. */
inline const char *
styleName(core::SyncStyle style)
{
    switch (style) {
      case core::SyncStyle::Busy: return "Busy";
      case core::SyncStyle::SleepBackoff: return "SleepBackoff";
      case core::SyncStyle::WaitInstr: return "WaitInstr";
      case core::SyncStyle::WaitAtomic: return "WaitAtomic";
    }
    return "?";
}

} // namespace ifp::cli

#endif // IFP_TOOLS_CLI_HH
