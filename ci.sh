#!/usr/bin/env bash
# Tier-1 verification for the DataFlower reproduction workspace.
#
# Runs entirely offline (the workspace has zero external dependencies):
#   1. cargo build --release
#   2. cargo test -q --workspace --no-fail-fast (one red test binary
#      must not hide the suites after it)
#   3. cargo fmt --check        (skipped if rustfmt is absent)
#   4. cargo clippy -D warnings (skipped if clippy is absent)
#   5. cargo doc -D warnings    (skipped if rustdoc is absent)
#   6. scripts/linkcheck.sh     (markdown links/anchors must resolve)
#   7. examples smoke pass      (every examples/*.rs runs to completion)
#   8. bench regression gate    (prints per-benchmark deltas against
#      BENCH_BASELINE.json; fails only when a benchmark got more than
#      2x slower than the committed baseline)
#   9. loadgen smoke gate       (open-loop load harness, smoke config;
#      p50/p99 compared against LOADGEN_BASELINE.json)
#  10. diff-fuzz smoke gate     (seeded random workflow DAGs run through
#      the live cluster with trace recording on, then replayed in the
#      simulator; the two decision streams must match exactly)
#  11. TCP path gate            (the two-media client-contract test, the
#      benchmark harness's own unit tests, and one quick
#      `fanout_small_tcp` benchmark run, which exits 1 on any response
#      that differs from its reference — so a change behind the
#      benchmark's pinned API that breaks the TCP path fails here, not
#      only in the benchmark pipeline)
#
# Steps 3-4 are the exact commands of the CI `lint` job and step 7 is the
# exact command of the CI `bench-smoke` job, so local and CI gates match.
# CI's verify job sets SKIP_LINT=1 / SKIP_BENCH_GATE=1 because those
# dedicated jobs own the steps there; local runs get everything.
set -u

cd "$(dirname "$0")"

failures=0

run() {
    echo "==> $*"
    if "$@"; then
        echo "    ok"
    else
        echo "    FAILED: $*" >&2
        failures=$((failures + 1))
    fi
}

run cargo build --workspace --release

run cargo test -q --workspace --no-fail-fast

if [ "${SKIP_LINT:-0}" = 1 ]; then
    echo "==> SKIP_LINT=1; fmt and clippy run in the dedicated lint job"
else
    if cargo fmt --version >/dev/null 2>&1; then
        run cargo fmt --check
    else
        echo "==> cargo fmt unavailable; skipping format check"
    fi

    if cargo clippy --version >/dev/null 2>&1; then
        run cargo clippy --workspace --all-targets -- -D warnings
    else
        echo "==> cargo clippy unavailable; skipping lint check"
    fi
fi

if rustdoc --version >/dev/null 2>&1; then
    run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
else
    echo "==> rustdoc unavailable; skipping doc check"
fi

# Markdown link check: relative paths and anchors across the top-level
# docs must resolve (the CI `docs` job runs the same script).
run ./scripts/linkcheck.sh

# Code lines per file of the live runtime and of the scenario crate, with
# a subtotal per directory, so a PR's "net-negative" is a number anyone
# can reproduce. Printed, never gating.
echo "==> ./scripts/loc.sh crates/rt/src crates/workloads/src (report only)"
./scripts/loc.sh crates/rt/src crates/workloads/src || true

# Examples smoke pass: doc-level entry points must keep running.
for ex in examples/*.rs; do
    run cargo run --quiet --release --example "$(basename "${ex%.rs}")"
done

# Bench regression gate: non-fatal on drift — the per-benchmark deltas
# are printed either way — but a benchmark more than 2x slower than the
# committed baseline fails the build. CI's verify job sets
# SKIP_BENCH_GATE=1 because the dedicated bench-smoke job owns this step
# there; local runs get it by default.
if [ "${SKIP_BENCH_GATE:-0}" != 1 ]; then
    run cargo run --release -p dataflower-bench --bin bench -- \
        --runs 3 --compare BENCH_BASELINE.json --tolerance 100

    # Loadgen smoke gate: the open-loop load harness drives its smallest
    # config against the live cluster and compares p50/p99 per
    # cell/benchmark row against the committed baseline. Same 2x
    # tolerance; regressions on *either* quantile fail.
    run cargo run --release -p dataflower-bench --bin bench -- \
        loadgen --config smoke --compare LOADGEN_BASELINE.json --tolerance 100
else
    echo "==> SKIP_BENCH_GATE=1; bench regression gate runs in the bench-smoke job"
fi

# Differential fuzz smoke: a small batch of seeded random workflow DAGs
# runs through the live cluster with trace recording on; each recorded
# trace is then replayed in the simulator and the two decision streams
# (invocations, pipe choices, checkpoint marks) must match exactly —
# zero divergences, byte-identical outputs. A failing seed dumps its
# trace to reports/fuzz/seed-N.dftrace and prints the one-command repro
# (`bench fuzz --seed N`). CI's verify job sets SKIP_FUZZ_GATE=1 because
# the dedicated diff-fuzz job owns this step there.
if [ "${SKIP_FUZZ_GATE:-0}" != 1 ]; then
    run cargo run --release -p dataflower-bench --bin bench -- \
        fuzz --seeds 16
else
    echo "==> SKIP_FUZZ_GATE=1; diff-fuzz gate runs in the diff-fuzz job"
fi

# TCP path gate: the same client contract over both media (release, as
# the socket-smoke job runs it), the benchmark package's unit tests (it
# is its own workspace, so `--workspace` above does not reach it), and a
# quick end-to-end benchmark run over worker processes and TCP links.
run cargo test -p dataflower-workloads --release --test two_media
run cargo test --release --offline --manifest-path benchmark/Cargo.toml
run benchmark/run.sh --workload fanout_small_tcp --quick

if [ "$failures" -ne 0 ]; then
    echo "ci.sh: $failures check(s) failed" >&2
    exit 1
fi
echo "ci.sh: all checks passed"
