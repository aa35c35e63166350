#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs it with the
# given arguments, e.g.:
#   bash e2e_bench/run.sh --workload cold_topk --seed 1 --seconds 30 --trace 0
# Build output goes to standard error; the last line of standard output is
# the JSON result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/everest-e2e-bench" "$@"
