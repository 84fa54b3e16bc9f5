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
# the probes write `artifacts/`. Every step runs whatever an earlier one
# found; the script then lists the steps that differ (or whose run failed)
# and exits nonzero if there is any. A failed build stops it at once.
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

# The steps that differ, or whose run failed.
differences=()

# Step $1 holds when files $2 and $3 are byte for byte the same.
compare() {
    if cmp "$2" "$3"; then
        echo "   $1: identical"
    else
        differences+=("$1")
    fi
}

# Runs "$@" in side $1's run directory; a failed run is a difference of
# step $2.
run() {
    local side=$1 step=$2
    shift 2
    if ! (cd "$scratch/$side-run" && "$@"); then
        echo "   $step: the $side run failed"
        differences+=("$step ($side run failed)")
    fi
}

echo "== observatory vs BENCH_baseline.json"
run change observatory env SCS_TELEMETRY_OUT=out/observatory.json "$(bench change)" observatory \
    > /dev/null
compare observatory "$scratch/change-run/out/observatory.json" "$repo/BENCH_baseline.json"

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
        run "$side" "$name" env SCS_TELEMETRY_OUT="out/$name.json" "$(bench $side)" "${args[@]}" \
            > /dev/null
    done
    compare "$name" "$scratch/parent-run/out/$name.json" "$scratch/change-run/out/$name.json"
done

echo "== dsspbench counts and sim_p90_ms (seed $seed)"
workloads=(auction_blind auction_view auction_view_writes bookstore_design_lru
    auction_view_shards4 auction_view_fleet4)
# Side $1's exact counts (digest included) and `sim_p90_ms` on workload $2.
counts() {
    "$(dsspbench "$1")" child --workload "$2" --seed "$seed" --mode timed |
        python3 -c 'import json,sys; print(json.dumps(json.loads(sys.stdin.read())["counts"], sort_keys=True))' \
            > "out/$2.counts"
}
sim_p90() {
    "$(dsspbench "$1")" --workload "$2" --seed "$seed" --seconds 2 --trace 0 | tail -n 1 |
        python3 -c 'import json,sys; print(repr(json.loads(sys.stdin.read())["metrics"]["sim_p90_ms"]["value"]))' \
            > "out/$2.sim_p90"
}
for w in "${workloads[@]}"; do
    for side in parent change; do
        run "$side" "$w counts" counts "$side" "$w"
        run "$side" "$w sim_p90_ms" sim_p90 "$side" "$w"
    done
    compare "$w counts" "$scratch/parent-run/out/$w.counts" "$scratch/change-run/out/$w.counts"
    compare "$w sim_p90_ms" "$scratch/parent-run/out/$w.sim_p90" "$scratch/change-run/out/$w.sim_p90"
done

if ((${#differences[@]})); then
    echo "differs in ${#differences[@]} step(s):"
    printf '   %s\n' "${differences[@]}"
    exit 1
fi
echo "same behaviour"
