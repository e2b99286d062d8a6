#!/usr/bin/env bash
# Byte-identity of every modelled output: revision REV (the parent)
# against the working tree (the change).
#
#   tools/byte_identity.sh REV
#
# Exports REV with `git archive` into build/identity/base and builds
# it there, builds the working tree in build/identity/change (both in
# the default RelWithDebInfo), then produces every surface below with
# each build, each side from its own directory under
# build/identity/out/, and compares the two sides byte for byte:
#
#   bench/NAME             stdout of the 17 table, figure and ablation
#                          binaries (every bench/ binary but the
#                          microbenches), IFP_BENCH_CSV=1
#                          IFP_BENCH_JOBS=1
#   ifpsim stdout          every workload x policy, with and without
#                          --oversubscribed
#   ifpsim --stats         the same runs' stdout with --stats, and the
#   ifpsim --stats-json    files --stats-json and --trace-out write
#   ifpsim --trace-out
#   ifpsim --disasm        every workload x policy
#   ifpexplore --json      the random walk, and --exhaustive --por
#   ifplint --all --json   with and without --interference
#   examples/NAME          stdout of the four examples
#
# Each run's exit status is appended to its stdout, so a run that
# fails on one side only differs too. Prints one `ok` or `DIFF` line
# per surface (a DIFF is followed by up to three of the differing
# files, all kept under build/identity/out) and exits 1 if any surface
# differs, 2 on a usage or build error. Takes about three minutes on
# four cores, most of it the two builds and the exhaustive
# exploration.
set -euo pipefail

usage() {
    echo "usage: tools/byte_identity.sh REV" >&2
    exit 2
}
(($# == 1)) || usage
rev=$1

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null \
    || { echo "byte_identity.sh: unknown revision '$rev'" >&2; exit 2; }

id=$root/build/identity
rm -rf "$id/base" "$id/out"
mkdir -p "$id/base"
git archive "$rev" | tar -x -C "$id/base"

benches=(ablation_awg ablation_contention ablation_spill_policy
         ablation_syncmon_size chaos_campaign fig11_exec_breakdown
         fig13_cp_structures fig14_non_oversubscribed
         fig15_oversubscribed fig5_context_size fig7_sleep_backoff
         fig8_timeout fig9_wait_efficiency queue_throughput
         serving_scenario table1_machine table2_characteristics)
examples=(quickstart oversubscription custom_kernel policy_explorer)
policies=(Baseline Sleep Timeout MonRS-All MonR-All MonNR-All MonNR-One
          AWG MinResume)

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
build() {  # build SOURCE_ROOT BUILD_DIR
    cmake -S "$1" -B "$2" "${generator[@]}" >/dev/null
    cmake --build "$2" -j "$(nproc)" --target ifpsim ifplint ifpexplore \
        "${benches[@]}" "${examples[@]}" >/dev/null \
        || { echo "byte_identity.sh: building $1 failed" >&2; exit 2; }
}
echo "byte_identity.sh: building $rev and the working tree" >&2
build "$id/base" "$id/base/build"
build "$root" "$id/change"

# run OUT CMD...: CMD's stdout, then its exit status, into OUT.
run() {
    local out=$1 status=0
    shift
    "$@" >"$out" 2>/dev/null || status=$?
    echo "exit=$status" >>"$out"
}

# produce SIDE BUILD_DIR: every surface of one build, into out/SIDE.
produce() {
    local dir=$id/out/$1 bin=$2 w p sub flags
    mkdir -p "$dir"/{bench,sim,stats,stats-json,trace,disasm,explore} \
        "$dir"/{lint,examples}
    cd "$dir"
    for b in "${benches[@]}"; do
        IFP_BENCH_CSV=1 IFP_BENCH_JOBS=1 run "bench/$b" "$bin/bench/$b"
    done
    local workloads
    workloads=$("$bin/tools/ifpsim" --list | awk 'NR > 1 && NF {print $1}')
    for w in $workloads; do
        for p in "${policies[@]}"; do
            run "disasm/$w-$p" "$bin/tools/ifpsim" --workload "$w" \
                --policy "$p" --disasm
            for sub in plain oversubscribed; do
                flags=()
                [[ $sub == plain ]] || flags=(--oversubscribed)
                run "sim/$w-$p-$sub" "$bin/tools/ifpsim" --workload "$w" \
                    --policy "$p" "${flags[@]}"
                run "stats/$w-$p-$sub" "$bin/tools/ifpsim" --workload "$w" \
                    --policy "$p" "${flags[@]}" --stats \
                    --stats-json "stats-json/$w-$p-$sub" \
                    --trace-out "trace/$w-$p-$sub"
            done
        done
    done
    run explore/random "$bin/tools/ifpexplore" --litmus all --json
    run explore/exhaustive-por "$bin/tools/ifpexplore" --litmus all \
        --exhaustive --por --json
    run lint/all "$bin/tools/ifplint" --all --json
    run lint/interference "$bin/tools/ifplint" --all --interference --json
    for e in "${examples[@]}"; do
        run "examples/$e" "$bin/examples/$e"
    done
}
produce base "$id/base/build" &
base_pid=$!
produce change "$id/change" &
change_pid=$!
wait "$base_pid"
wait "$change_pid"

# compare LABEL PATH: one line for the file or directory PATH under
# out/base and out/change, then the first differing files if any.
differ=0
compare() {
    local diffs
    if diffs=$(diff -rq "$id/out/base/$2" "$id/out/change/$2"); then
        echo "ok    $1"
    else
        echo "DIFF  $1"
        sed -n "1,3{s|$id/out/||g; s|^|      |; p}" <<<"$diffs"
        differ=1
    fi
}
for b in "${benches[@]}"; do compare "bench/$b" "bench/$b"; done
compare "ifpsim stdout" sim
compare "ifpsim --stats" stats
compare "ifpsim --stats-json" stats-json
compare "ifpsim --trace-out" trace
compare "ifpsim --disasm" disasm
compare "ifpexplore --json (random)" explore/random
compare "ifpexplore --json (--exhaustive --por)" explore/exhaustive-por
compare "ifplint --all --json" lint/all
compare "ifplint --all --interference --json" lint/interference
for e in "${examples[@]}"; do compare "examples/$e" "examples/$e"; done
exit "$differ"
