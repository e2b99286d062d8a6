#!/usr/bin/env bash
# A/B host-time comparison with the end-to-end benchmark (bench/e2e):
# revision REV (the parent) against the working tree (the change).
#
#   tools/bench_pairs.sh REV [WORKLOAD|all] [PAIRS]
#
# Builds REV's bench/e2e in a git worktree under build/pairs/ (ignored
# by git; the worktree is removed on exit) and the working tree's
# bench/e2e in build/pairs/change, both in Release. Then, for each
# workload (default all five), runs PAIRS pairs (default 10) of
# `ifpbench --seconds S`, S being run_seconds from BENCHMARK.json,
# one process at a time and alternating which side runs first. Each
# binary runs from its own tree root, so each checks its own
# bench/e2e/reference.json; a failed check stops the script.
#
# For each end-to-end metric it prints a markdown row: both sides'
# medians and quartiles (statistics.quantiles, n=4, as in
# bench/e2e/spread.py), the ratio of medians, the change's wins out of
# PAIRS (ties count for neither side), whether the gain rule holds
# (the change wins at least 9 pairs in 10 and the medians differ by
# more than the parent's interquartile range) and whether the change's
# median stays within the metric's regression bound. Every run's JSON
# result is kept in build/pairs/<workload>.jsonl. Nothing under
# bench/e2e is written.
set -euo pipefail

usage() {
    echo "usage: tools/bench_pairs.sh REV [WORKLOAD|all] [PAIRS]" >&2
    exit 2
}
(($# >= 1 && $# <= 3)) || usage
rev=$1
selected=${2:-all}
pairs=${3:-10}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
workloads=(fig14 fig15 queues serving explore)
[[ $selected == all ]] || workloads=("$selected")
seconds=$(python3 -c \
    'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    BENCHMARK.json)

out=build/pairs
base=$out/base
mkdir -p "$out"
git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
git worktree prune
git worktree add --detach "$base" "$rev" >&2
trap 'git worktree remove --force "$base"; git worktree prune' EXIT
[[ -f $base/bench/e2e/CMakeLists.txt ]] \
    || { echo "bench_pairs.sh: $rev has no bench/e2e" >&2; exit 1; }

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
build() {  # build SOURCE_ROOT BUILD_DIR
    cmake -S "$1/bench/e2e" -B "$2" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "$2" --target ifpbench -j "$(nproc)" >/dev/null
}
echo "bench_pairs.sh: building $rev and the working tree" >&2
build "$base" "$base/build-pairs"
build "$root" "$out/change"
parent_bin=$root/$base/build-pairs/ifpbench
change_bin=$root/$out/change/ifpbench

run_side() {  # run_side parent|change WORKLOAD PAIR RESULTS_FILE
    local dir=$root/$base bin=$parent_bin line
    if [[ $1 == change ]]; then dir=$root bin=$change_bin; fi
    line=$(cd "$dir" && "$bin" --workload "$2" --seconds "$seconds" \
        2>>"$root/$out/stderr.log" | tail -n 1) || {
        echo "bench_pairs.sh: $1 $2 pair $3 failed its checks" >&2
        exit 1
    }
    printf '{"side": "%s", "pair": %d, "result": %s}\n' \
        "$1" "$3" "$line" >>"$4"
}

for w in "${workloads[@]}"; do
    results=$out/$w.jsonl
    : >"$results"
    for ((p = 1; p <= pairs; ++p)); do
        if ((p % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            run_side "$side" "$w" "$p" "$results"
        done
        echo "bench_pairs.sh: $w pair $p/$pairs done" >&2
    done
done

python3 - "$rev ($(git rev-parse --short "$rev"))" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys


def summary(values):
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


rev, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
print(f"parent = {rev}, change = working tree, "
      f"run_seconds = {bench['run_seconds']}")
print()
print("| workload | metric | parent median [q1, q3] "
      "| change median [q1, q3] | change/parent | wins | gain rule "
      "| within bound |")
print("|---|---|---|---|---|---|---|---|")
for w in workloads:
    runs = [json.loads(line) for line in open(f"build/pairs/{w}.jsonl")]
    for r in runs:
        res = r["result"]
        if not res["correct"] or res["failed"] != 0:
            sys.exit(f"bench_pairs.sh: {w} {r['side']} pair {r['pair']} "
                     "failed its checks")
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        side = {"parent": {}, "change": {}}
        for r in runs:
            side[r["side"]][r["pair"]] = r["result"]["metrics"][name]["value"]
        paired = sorted(side["parent"].keys() & side["change"].keys())
        wins = sum(1 for p in paired
                   if (side["change"][p] < side["parent"][p]) == lower
                   and side["change"][p] != side["parent"][p])
        pm, pq1, pq3 = summary(list(side["parent"].values()))
        cm, cq1, cq3 = summary(list(side["change"].values()))
        improved = cm < pm if lower else cm > pm
        gain = (improved and wins * 10 >= 9 * len(paired)
                and abs(cm - pm) > pq3 - pq1)
        worse = (cm - pm) / pm if lower else (pm - cm) / pm
        within = worse <= m["bound"]
        print(f"| {w} | {name} ({m['unit']}) | {pm:.4g} [{pq1:.4g}, "
              f"{pq3:.4g}] | {cm:.4g} [{cq1:.4g}, {cq3:.4g}] | "
              f"{cm / pm:.3f} | {wins}/{len(paired)} | "
              f"{'holds' if gain else 'no'} | "
              f"{'yes' if within else 'NO'} |")
EOF
