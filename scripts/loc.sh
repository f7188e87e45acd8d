#!/usr/bin/env bash
# Code lines per file of the live runtime, counted the way the PR
# reports quote them: lines above the first `#[cfg(test)]` that are
# neither blank nor comment-only (`//`, `///`, `//!`).
#
#   ./scripts/loc.sh                # crates/rt/src/*.rs and their total
#   ./scripts/loc.sh FILE.rs ...    # explicit file set
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- crates/rt/src/*.rs
fi

awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { lines[FILENAME]++; total++ }
    END {
        for (i = 1; i < ARGC; i++) printf "%6d  %s\n", lines[ARGV[i]], ARGV[i]
        printf "%6d  total\n", total
    }
' "$@"
