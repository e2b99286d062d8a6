#!/usr/bin/env bash
# End-to-end benchmark of the simulator (see bench/e2e/README.md).
#
# Builds bench/e2e in Release from the sources of this checkout into
# bench/e2e/build, then runs ifpbench once per workload, each in its
# own single-threaded process:
#
#   bench/e2e/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
#   bench/e2e/run.sh --smoke              one reduced pass per workload
#   bench/e2e/run.sh --update-reference   rewrite reference.json (seed 1)
#
# The last line each workload prints on stdout is its JSON result;
# --trace 1 also writes bench/e2e/build/traces/<workload>.json (Chrome
# trace; open it in Perfetto). Exits non-zero when the build fails or
# any workload fails a check.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build=bench/e2e/build
workloads=(fig14 fig15 queues serving explore)

selected=all
mode=run
trace=0
args=()
while (($#)); do
    case "$1" in
        --workload) selected="${2:?missing value for $1}"; shift 2 ;;
        --trace) trace="${2:?missing value for $1}"; args+=("$1" "$2"); shift 2 ;;
        --seed|--seconds) args+=("$1" "${2:?missing value for $1}"); shift 2 ;;
        --smoke) mode=smoke; shift ;;
        --update-reference) mode=reference; shift ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done
[[ $selected == all ]] || workloads=("$selected")
if [[ $mode == reference && $selected != all ]]; then
    # reference.json is rewritten whole; one workload would drop the rest.
    echo "run.sh: --update-reference regenerates every workload;" \
        "it takes no --workload" >&2
    exit 2
fi

if [[ ! -f src/CMakeLists.txt ]]; then
    echo "run.sh: no simulator sources in $root/src" >&2
    exit 1
fi
if [[ ! -f $build/CMakeCache.txt ]]; then
    generator=()
    if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
    cmake -S bench/e2e -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target ifpbench -j "$(nproc)" >&2

if [[ $mode == reference ]]; then
    # With --digests-out, ifpbench skips the comparison against the old
    # reference but still fails on a wrong verdict or memory image.
    digests=$build/digests.txt
    rm -f "$digests"
    for w in "${workloads[@]}"; do
        for size in --smoke "--seconds 0"; do
            # shellcheck disable=SC2086  # $size is one or two words
            if ! "$build/ifpbench" --workload "$w" --seed 1 $size \
                --digests-out "$digests" >/dev/null; then
                echo "run.sh: $w $size failed its checks;" \
                    "reference.json left unchanged" >&2
                exit 1
            fi
        done
    done
    { echo "{"; sort -u "$digests" | sed '$!s/$/,/'; echo "}"; } \
        > bench/e2e/reference.json
    echo "run.sh: wrote bench/e2e/reference.json; review its diff" >&2
    exit 0
fi

status=0
for w in "${workloads[@]}"; do
    extra=()
    [[ $mode == smoke ]] && extra+=(--smoke)
    if [[ $trace == 1 ]]; then
        mkdir -p "$build/traces"
        extra+=(--trace-out "$build/traces/$w.json")
    fi
    "$build/ifpbench" --workload "$w" "${args[@]}" "${extra[@]}" \
        || status=$?
done
exit "$status"
