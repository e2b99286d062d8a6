#!/usr/bin/env bash
# Sweep-parity harness: run every bench binary serially
# (IFP_BENCH_JOBS=1) and in parallel (IFP_BENCH_JOBS=N) with CSV
# output enabled, and diff the stdout of the two runs. Any difference
# means the parallel sweep changed the evaluation's results and fails
# the run. Wired into ctest as the `sweep-parity` label.
#
# With --trace the second run instead enables structured tracing
# (IFP_BENCH_TRACE=1, serial): tracing must observe, never perturb, so
# the bench tables must stay byte-identical. Wired into ctest as the
# `observability` label.
#
# With --verify the script is instead the one-stop verification entry
# point: configure + build, the tier-1 ctest suite, the static kernel
# verifier gate (ifplint --all --Werror), the litmus and queue-family
# label suites, byte-identity of the
# exploration and interference JSON surfaces, the POR-vs-unreduced
# exhaustive agreement check, clang-tidy (skipped when not installed),
# the sanitized test run (ASan+UBSan), and last the end-to-end
# benchmark's smoke pass (bench/e2e/run.sh --smoke), whose per-run
# digests must match bench/e2e/reference.json. This is what CI or a
# pre-merge check should call.
#
# Usage: run_all_benches.sh [--trace] [BENCH_DIR] [JOBS]
#        run_all_benches.sh --verify [BUILD_DIR] [JOBS]
#   BENCH_DIR  directory with the bench binaries (default: build/bench)
#   JOBS       parallel worker count (default: IFP_BENCH_PARITY_JOBS
#              or the machine's core count; unused with --trace)

set -u

if [ "${1:-}" = "--verify" ]; then
    shift
    SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
    BUILD_DIR="${1:-build}"
    JOBS="${2:-$(nproc 2>/dev/null || echo 4)}"

    set -e
    echo "== configure + build ($BUILD_DIR)"
    cmake -S "$SRC_DIR" -B "$BUILD_DIR" > /dev/null
    cmake --build "$BUILD_DIR" -j "$JOBS"

    echo "== tier-1 tests (ctest)"
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

    echo "== static kernel verifier (ifplint --all --Werror)"
    "$BUILD_DIR/tools/ifplint" --all --Werror > /dev/null
    echo "lint clean"

    echo "== litmus suite (ctest -L litmus)"
    ctest --test-dir "$BUILD_DIR" -L litmus --output-on-failure -j "$JOBS"

    echo "== queue family (ctest -L queues)"
    ctest --test-dir "$BUILD_DIR" -L queues --output-on-failure -j "$JOBS"

    echo "== litmus exploration byte-identity (ifpexplore)"
    explore_tmp="$(mktemp -d)"
    "$BUILD_DIR/tools/ifpexplore" --litmus all --schedules 50 --json \
        > "$explore_tmp/a.json"
    "$BUILD_DIR/tools/ifpexplore" --litmus all --schedules 50 --json \
        > "$explore_tmp/b.json"
    if ! cmp "$explore_tmp/a.json" "$explore_tmp/b.json"; then
        echo "FAIL: ifpexplore --json is not byte-identical" >&2
        rm -rf "$explore_tmp"
        exit 1
    fi
    rm -rf "$explore_tmp"
    echo "exploration deterministic"

    echo "== interference summaries byte-identity (ifplint --interference)"
    interference_tmp="$(mktemp -d)"
    "$BUILD_DIR/tools/ifplint" --all --interference --Werror --json \
        > "$interference_tmp/a.json"
    "$BUILD_DIR/tools/ifplint" --all --interference --Werror --json \
        > "$interference_tmp/b.json"
    if ! cmp "$interference_tmp/a.json" "$interference_tmp/b.json"; then
        echo "FAIL: ifplint --interference --json is not byte-identical" >&2
        rm -rf "$interference_tmp"
        exit 1
    fi
    rm -rf "$interference_tmp"
    echo "interference summaries deterministic"

    echo "== POR agreement (ifpexplore --exhaustive with and without --por)"
    por_tmp="$(mktemp -d)"
    "$BUILD_DIR/tools/ifpexplore" --litmus all --exhaustive \
        --max-schedules 400 --max-depth 8 --max-cycles 2000000 \
        --no-lint --json > "$por_tmp/base.json"
    "$BUILD_DIR/tools/ifpexplore" --litmus all --exhaustive --por \
        --max-schedules 400 --max-depth 8 --max-cycles 2000000 \
        --no-lint --json > "$por_tmp/por.json"
    # Both runs exit 0 above (set -e), so every cell's observed
    # verdicts match the annotation with and without the reduction;
    # on top of that the reduced run must visit no more schedules.
    base_total=$(grep -o '"schedules": *[0-9]*' "$por_tmp/base.json" |
                 awk -F: '{ sum += $2 } END { print sum + 0 }')
    por_total=$(grep -o '"schedules": *[0-9]*' "$por_tmp/por.json" |
                awk -F: '{ sum += $2 } END { print sum + 0 }')
    rm -rf "$por_tmp"
    if [ "$base_total" -eq 0 ] || [ "$por_total" -eq 0 ]; then
        echo "FAIL: no schedule counts in the ifpexplore --json output" >&2
        exit 1
    fi
    if [ "$por_total" -gt "$base_total" ]; then
        echo "FAIL: POR visited $por_total schedules vs $base_total unreduced" >&2
        exit 1
    fi
    echo "POR agrees ($por_total of $base_total schedules)"

    echo "== clang-tidy"
    "$SRC_DIR/tools/run_clang_tidy.sh" "$BUILD_DIR" "$JOBS"

    echo "== sanitized tests (ASan + UBSan)"
    "$SRC_DIR/tools/run_sanitized_tests.sh" "$BUILD_DIR-sanitize" "$JOBS"

    echo "== end-to-end benchmark smoke (bench/e2e, digests vs reference.json)"
    bash "$SRC_DIR/bench/e2e/run.sh" --smoke

    echo "== verify: all checks passed"
    exit 0
fi

MODE=parity
if [ "${1:-}" = "--trace" ]; then
    MODE=trace
    shift
fi

BENCH_DIR="${1:-build/bench}"
JOBS="${2:-${IFP_BENCH_PARITY_JOBS:-$(nproc 2>/dev/null || echo 4)}}"
# Always exercise the thread pool, even on single-core hosts:
# parity is about determinism under concurrency, not speed.
[ "$JOBS" -ge 2 ] 2>/dev/null || JOBS=4

if [ ! -d "$BENCH_DIR" ]; then
    echo "error: bench dir '$BENCH_DIR' not found (build first)" >&2
    exit 2
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

if [ "$MODE" = trace ]; then
    alt_label="traced"
    alt_desc="IFP_BENCH_TRACE=1"
else
    alt_label="parallel"
    alt_desc="jobs=$JOBS"
fi

run_alt() {
    # $1 = binary, $2 = output file
    if [ "$MODE" = trace ]; then
        IFP_BENCH_CSV=1 IFP_BENCH_JOBS=1 IFP_BENCH_TRACE=1 "$1" > "$2" 2>/dev/null
    else
        IFP_BENCH_CSV=1 IFP_BENCH_JOBS="$JOBS" "$1" > "$2" 2>/dev/null
    fi
}

fail=0
total_serial=0
total_alt=0

for bin in "$BENCH_DIR"/*; do
    [ -x "$bin" ] && [ -f "$bin" ] || continue
    name="$(basename "$bin")"
    case "$name" in
        # Google-benchmark binaries measure host time, not sweeps.
        microbench_*) continue ;;
        *.cmake|CTestTestfile*|CMakeFiles) continue ;;
    esac

    t0=$(date +%s.%N)
    if ! IFP_BENCH_CSV=1 IFP_BENCH_JOBS=1 "$bin" \
            > "$tmpdir/$name.serial" 2>/dev/null; then
        echo "FAIL  $name: serial run exited non-zero" >&2
        fail=1
        continue
    fi
    t1=$(date +%s.%N)
    if ! run_alt "$bin" "$tmpdir/$name.$alt_label"; then
        echo "FAIL  $name: $alt_desc run exited non-zero" >&2
        fail=1
        continue
    fi
    t2=$(date +%s.%N)

    serial_s=$(echo "$t1 $t0" | awk '{printf "%.2f", $1 - $2}')
    alt_s=$(echo "$t2 $t1" | awk '{printf "%.2f", $1 - $2}')
    total_serial=$(echo "$total_serial $serial_s" | awk '{print $1 + $2}')
    total_alt=$(echo "$total_alt $alt_s" | awk '{print $1 + $2}')

    if diff -u "$tmpdir/$name.serial" "$tmpdir/$name.$alt_label" \
            > "$tmpdir/$name.diff"; then
        echo "ok    $name (serial ${serial_s}s, $alt_desc ${alt_s}s)"
    else
        echo "FAIL  $name: baseline and $alt_desc output differ:" >&2
        cat "$tmpdir/$name.diff" >&2
        fail=1
    fi
done

if [ "$MODE" = trace ]; then
    echo "total: serial ${total_serial}s, traced ${total_alt}s"
else
    speedup=$(echo "$total_serial $total_alt" | \
              awk '{ if ($2 > 0) printf "%.2f", $1 / $2; else print "n/a" }')
    echo "total: serial ${total_serial}s, jobs=$JOBS ${total_alt}s," \
         "suite speedup ${speedup}x"
fi

exit $fail
