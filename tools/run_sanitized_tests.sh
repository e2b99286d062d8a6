#!/usr/bin/env bash
# Build the tree with CMAKE_BUILD_TYPE=Sanitize (ASan + UBSan, fatal
# on first finding) and run every ctest case under it: the unit and
# integration suite under tests/ and the cases registered under
# bench/ (sweep parity, which runs sweeps on several threads, the
# trace smoke and the microbenchmark smokes). A clean exit means the
# suite is free of memory errors and UB on the paths the tests
# exercise; any sanitizer report fails the run.
#
# The sanitized tree lives in its own build directory so it never
# disturbs the primary build. Not part of the default ctest run
# (the sanitized simulator is ~5-20x slower); invoke this script
# directly or from CI.
#
# Usage: run_sanitized_tests.sh [BUILD_DIR] [JOBS] [-- CTEST_ARGS...]
#   BUILD_DIR  sanitized build tree (default: build-sanitize)
#   JOBS       parallel build/test jobs (default: nproc)
#   CTEST_ARGS extra arguments forwarded to ctest, e.g.
#              `-- -L robustness` to sanitize only the fault suite

set -eu

SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

BUILD_DIR="${1:-build-sanitize}"
JOBS="${2:-$(nproc 2>/dev/null || echo 4)}"

shift $(( $# > 2 ? 2 : $# ))
[ "${1:-}" = "--" ] && shift

cmake -S "$SRC_DIR" -B "$BUILD_DIR" \
      -DCMAKE_BUILD_TYPE=Sanitize > /dev/null
cmake --build "$BUILD_DIR" -j "$JOBS"

# abort_on_error: make ASan failures hard exits even under ctest's
# output capture; detect_leaks stays on to catch event-queue and
# harness allocations that outlive a run.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="print_stacktrace=1"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" "$@"
