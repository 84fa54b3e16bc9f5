#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repo root.
#
#   benchmark/run.sh [--seed N] [--seconds S]     every workload, every metric
#   benchmark/run.sh --selfcheck                  two sets must agree within bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one workload; result JSON on the last line
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/dsspbench" "$@"
