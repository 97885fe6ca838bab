#!/usr/bin/env bash
# A/B-compare two revisions of the library crates with one benchmark.
#
#   benchmark/scripts/ab.sh PARENT_REV CHANGE_REV [RUNS] [WORKLOAD...]
#
# Exports both revisions into a fresh `mktemp -d` directory, puts this
# checkout's `benchmark/` into both (so parent and change are measured by
# identical benchmark code), builds each into its own target directory,
# then runs RUNS (default 10, at least 10) pairs per workload on a fresh
# seed per pair, alternating which side runs first. The records land in
# benchmark/ab-results/ and bench_compare prints the verdicts.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 PARENT_REV CHANGE_REV [RUNS] [WORKLOAD...]" >&2
    exit 2
fi
parent_rev=$1
change_rev=$2
runs=${3:-10}
shift $(($# < 3 ? $# : 3))
if [ "$runs" -lt 10 ]; then
    echo "ab: at least 10 pairs are needed to claim a gain (got $runs)" >&2
    exit 2
fi
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(paper_all explore_paper_space mega_stream serve_steady serve_chaos_ckpt)
fi

repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for side in parent change; do
    rev=$parent_rev
    [ "$side" = change ] && rev=$change_rev
    mkdir -p "$tmp/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$tmp/$side"
    rm -rf "$tmp/$side/benchmark"
    tar -C "$repo" --exclude=target --exclude=ab-results -cf - benchmark | tar -x -C "$tmp/$side"
    echo "ab: building $side ($rev)" >&2
    CARGO_TARGET_DIR="$tmp/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$tmp/$side/benchmark/Cargo.toml" --bins
done

out="$repo/benchmark/ab-results/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
base=$(date +%s)
for i in $(seq 1 "$runs"); do
    seed=$((base + i))
    order=(parent change)
    [ $((i % 2)) -eq 0 ] && order=(change parent)
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            (cd "$tmp/$side" && "$tmp/$side-target/release/benchmark" \
                --workload "$w" --seed "$seed" --out "$out/$side.jsonl" >/dev/null)
        done
    done
    echo "ab: pair $i/$runs done (seed $seed)" >&2
done

"$tmp/change-target/release/bench_compare" "$out/parent.jsonl" "$out/change.jsonl"
