#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. See
# benchmark/README.md for the workloads, metrics and recipes.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--traced] [--quick]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare PARENT.json... -- CHANGE.json...
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/linarb-benchmark" "$@"
