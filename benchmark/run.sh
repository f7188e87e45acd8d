#!/usr/bin/env bash
# The one command: build the harness (release, offline) and run one workload.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#                    [--quick]
#
# --quick runs a fifth of the durations (smoke use; the numbers are not
# comparable). The last line of standard output is the result as one JSON
# object; the same numbers go to benchmark/out/<workload>.<e2e|trace>.json
# with the host they were measured on.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# Dependency artefacts are shared with the root workspace's target/ unless
# the caller chose a target directory (a relative one is relative to $PWD).
target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export DFBENCH_OUT=${DFBENCH_OUT:-$here/out}
DFBENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
DFBENCH_COMMIT=$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)
export DFBENCH_RUSTC DFBENCH_COMMIT
exec "$target/release/dataflower-benchmark" "$@"
