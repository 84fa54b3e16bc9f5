#!/usr/bin/env bash
# Same-behaviour check for a change that claims no behaviour change:
# the working tree against a parent commit, on every surface the ground
# rules name (ROADMAP.md).
#
#   scripts/same_behaviour.sh <parent-sha> [scratch-dir]
#
# 1. `observatory` regenerates BENCH_baseline.json byte for byte;
# 2. the seven probe artifacts (`chaos`, `chaos --smoke --seed 42`,
#    `failover`, `overload`, `freshness`, `frontier --smoke`,
#    `elastic --full`) `cmp` identical to the parent's;
# 3. on all six `dsspbench` workloads, `dsspbench child` counts (digest
#    included) are equal, and `sim_p90_ms` is bit-identical.
#
# The parent is exported with `git archive` into the scratch directory
# (default: $TMPDIR/same_behaviour), and each side builds into its own
# target directory there. Every command runs from a scratch directory:
# `dsspbench` writes `benchmark/out/` under its working directory, and
# the probes write `artifacts/`. Exits nonzero on the first difference.
set -euo pipefail

parent=${1:?usage: $0 <parent-sha> [scratch-dir]}
repo=$(git rev-parse --show-toplevel)
scratch=${2:-${TMPDIR:-/tmp}/same_behaviour}
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)
seed=7

rm -rf "$scratch/parent-src"
mkdir -p "$scratch/parent-src"
git -C "$repo" archive "$parent" | tar -x -C "$scratch/parent-src"

# Builds side $1 from source tree $2.
build() {
    (cd "$2" && CARGO_TARGET_DIR="$scratch/$1-target" cargo build --release --offline -q -p scs-bench)
    (cd "$2" && CARGO_TARGET_DIR="$scratch/$1-bench-target" cargo build --release --offline -q \
        --manifest-path benchmark/Cargo.toml)
}
build parent "$scratch/parent-src"
build change "$repo"

bench() { echo "$scratch/$1-target/release/scs-bench"; }
dsspbench() { echo "$scratch/$1-bench-target/release/dsspbench"; }

for side in parent change; do
    rm -rf "${scratch:?}/$side-run"
    mkdir -p "$scratch/$side-run/out"
done

echo "== observatory vs BENCH_baseline.json"
(cd "$scratch/change-run" &&
    SCS_TELEMETRY_OUT=out/observatory.json "$(bench change)" observatory > /dev/null)
cmp "$scratch/change-run/out/observatory.json" "$repo/BENCH_baseline.json"

echo "== probe artifacts"
artifacts=(
    "chaos|chaos"
    "chaos_smoke_42|chaos --smoke --seed 42"
    "failover|failover"
    "overload|overload"
    "freshness|freshness"
    "frontier_smoke|frontier --smoke"
    "elastic_full|elastic --full"
)
for entry in "${artifacts[@]}"; do
    name=${entry%%|*}
    read -r -a args <<< "${entry#*|}"
    for side in parent change; do
        (cd "$scratch/$side-run" &&
            SCS_TELEMETRY_OUT="out/$name.json" "$(bench $side)" "${args[@]}" > /dev/null)
    done
    cmp "$scratch/parent-run/out/$name.json" "$scratch/change-run/out/$name.json"
    echo "   $name: identical"
done

echo "== dsspbench counts and sim_p90_ms (seed $seed)"
workloads=(auction_blind auction_view auction_view_writes bookstore_design_lru
    auction_view_shards4 auction_view_fleet4)
for w in "${workloads[@]}"; do
    for side in parent change; do
        (cd "$scratch/$side-run" &&
            "$(dsspbench $side)" child --workload "$w" --seed "$seed" --mode timed |
            python3 -c 'import json,sys; print(json.dumps(json.loads(sys.stdin.read())["counts"], sort_keys=True))' \
                > "out/$w.counts")
        (cd "$scratch/$side-run" &&
            "$(dsspbench $side)" --workload "$w" --seed "$seed" --seconds 2 --trace 0 | tail -n 1 |
            python3 -c 'import json,sys; print(repr(json.loads(sys.stdin.read())["metrics"]["sim_p90_ms"]["value"]))' \
                > "out/$w.sim_p90")
    done
    cmp "$scratch/parent-run/out/$w.counts" "$scratch/change-run/out/$w.counts"
    cmp "$scratch/parent-run/out/$w.sim_p90" "$scratch/change-run/out/$w.sim_p90"
    echo "   $w: counts and sim_p90_ms $(cat "$scratch/change-run/out/$w.sim_p90") identical"
done
echo "same behaviour"
