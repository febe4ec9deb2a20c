#!/usr/bin/env bash
# Build the benchmark in release mode and run it from the repository root.
#
#   bench/run.sh [--seed N]            all five workloads, every metric
#   bench/run.sh [--seed N] --check    the same twice; the two runs must agree
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                      one workload; last line is the result
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench/target}"
# The build talks on stderr only: stdout belongs to the results.
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2
BENCH_RUSTC="$(rustc --version)"
export BENCH_RUSTC
exec "$CARGO_TARGET_DIR/release/imca-benchmark" "$@"
