/**
 * @file
 * The build is what its configuration claims. A Sanitize build
 * (tools/run_sanitized_tests.sh) defines IFP_SANITIZE_BUILD; if its
 * objects compile without AddressSanitizer, the sanitized suite
 * checks no load or store and its clean run proves nothing.
 */

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#define IFP_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IFP_HAS_ASAN 1
#endif
#endif

namespace {

TEST(BuildConfig, SanitizeBuildIsInstrumented)
{
#if defined(IFP_SANITIZE_BUILD) && !defined(IFP_HAS_ASAN)
    FAIL() << "CMAKE_BUILD_TYPE=Sanitize compiled without "
              "-fsanitize=address";
#endif
}

} // anonymous namespace
