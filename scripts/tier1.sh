#!/usr/bin/env bash
# Tier-1 verification: the gate every change must keep green.
#
#   scripts/tier1.sh            build + root-package tests
#   scripts/tier1.sh --strict   additionally check formatting of the
#                               first-party packages, lint the whole
#                               workspace (clippy with warnings denied),
#                               resolve every first-party doc link
#                               (rustdoc with warnings denied),
#                               run every other workspace test in
#                               release and the benchmark harness's
#                               own tests (so a change that breaks the
#                               benchmark-facing API fails here, not
#                               in the benchmark),
#                               run the benchmark and hold its
#                               virtual-time fields to the committed
#                               baseline (scripts/perfcheck), and
#                               smoke-run every figure and ablation
#                               binary under crates/bench/src/bin off
#                               one build; each asserts its own claims,
#                               so a false one exits non-zero here,
#                               run the self-checking examples, and
#                               hold every file the binaries write to
#                               results/smoke to what is committed there
#                               and, for the metrics snapshots, to the
#                               committed digests (scripts/smokecheck):
#                               the modes the benchmark never runs
#
# The root package's tests are the contract (see ROADMAP.md); the strict
# mode is what CI runs before merging. Each step prints its wall time as
# it finishes (`== <step> <seconds> s`), and the gate its total last.

set -euo pipefail
cd "$(dirname "$0")/.."

# Reproducible CI: pin the property-test case count. The vendored
# proptest shim honours PROPTEST_CASES in ProptestConfig::default(),
# and its RNG is already deterministic per (test name, case index) —
# so a fixed case count makes every tier-1 run replay identically.
export PROPTEST_CASES="${PROPTEST_CASES:-64}"

# First-party packages: everything except the vendored shims, whose
# hand-minimised sources are deliberately not rustfmt-clean.
FIRST_PARTY=(
    imca-repro imca-sim imca-metrics imca-fabric imca-storage
    imca-memcached imca-glusterfs imca-lustre imca-nfs imca-core
    imca-workloads imca-bench
)

# Wall time since the microsecond stamp $2, printed under the name $1.
elapsed() {
    local ds=$(((${EPOCHREALTIME/[.,]/} - $2) / 100000))
    printf '== %-40s %5d.%d s\n' "$1" $((ds / 10)) $((ds % 10))
}

# Run one step of the gate: the command after the name, then its time.
step() {
    local name=$1 t0=${EPOCHREALTIME/[.,]/}
    shift
    "$@" || { echo "== $name failed" >&2; return 1; }
    elapsed "$name" "$t0"
}

GATE_T0=${EPOCHREALTIME/[.,]/}
step build cargo build --release
step test cargo test -q

if [[ "${1:-}" == "--strict" ]]; then
    step fmt cargo fmt --check "${FIRST_PARTY[@]/#/--package=}"
    step clippy cargo clippy --workspace --all-targets -- -D warnings

    # Every intra-doc link resolves to a public item: a doc comment that
    # still names a deleted or private item fails here. The vendored
    # shims stay out (proptest's `vec` is both a function and a macro,
    # which rustdoc rejects on its own).
    step doc env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q "${FIRST_PARTY[@]/#/--package=}"

    # Everything else the workspace tests, and the benchmark harness
    # against the changed crates. The root package's tests ran in the
    # debug `test` step above, with overflow checks and `debug_assert!`s
    # on; a second, release run of them would add only compile time.
    step workspace-tests cargo test --workspace --release -q --exclude imca-repro
    step bench-tests env CARGO_TARGET_DIR=bench/target \
        cargo test --release --offline -q --manifest-path bench/Cargo.toml

    # The virtual-time gate: the benchmark at seed 42 must reproduce every
    # field of bench/baseline/2c.json that is not on the host clock.
    step perfcheck scripts/perfcheck

    # One build, then every figure and ablation binary on its smallest
    # grid (`--smoke`), writing into results/smoke. The binaries assert
    # their own claims (BENCH_5 through BENCH_9's verdicts,
    # ablate_failure's audit trail, ...), so a false claim exits non-zero
    # under `set -e`, and a binary added later is gated without editing
    # this script.
    step build-bins cargo build --release -p imca-bench --bins
    BIN=target/release
    # From an empty directory, so a table a binary stops writing shows
    # as deleted to scripts/smokecheck instead of keeping its old copy.
    rm -rf results/smoke
    mkdir -p results/smoke
    for src in crates/bench/src/bin/*.rs; do
        name=$(basename "$src" .rs)
        step "smoke $name" "$BIN/$name" --smoke --out results/smoke
    done

    # The examples that assert their own claims (failover checks every
    # byte across daemon kills), off one release build. hostprof and
    # perfcheck are tools that need arguments, so they are only built.
    step build-examples cargo build --release --examples
    for name in quickstart failover producer_consumer datacenter_smallfiles; do
        step "example $name" "$BIN/examples/$name"
    done

    # The mode gate: threaded updates, the purge protocol, per-key
    # framing, leases under writes and the overload pair run only in the
    # binaries above, so what they wrote must match the tables committed
    # in results/smoke (no file changed, missing or new) and the metrics
    # digests in crates/bench/smoke.sha256.
    step smokecheck scripts/smokecheck
fi
elapsed total "$GATE_T0"
