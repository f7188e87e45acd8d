#!/usr/bin/env bash
# Code lines per file, counted the way the PR reports quote them: lines
# above the test module (`#[cfg(test)]` directly followed by `mod`) that
# are neither blank nor comment-only (`//`, `///`, `//!`). A
# `#[cfg(test)]` on anything else (a helper fn, an import) does not end
# the count.
#
#   ./scripts/loc.sh                  # crates/rt/src and crates/workloads/src
#   ./scripts/loc.sh DIR|FILE.rs ...  # every *.rs under each DIR (with a
#                                     # subtotal per DIR), each FILE as is
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- crates/rt/src crates/workloads/src
fi

count() {
    awk '
        FNR == 1 { in_tests = 0; held = 0 }
        in_tests { next }
        held {
            held = 0
            if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) { in_tests = 1; next }
            lines[FILENAME]++; total++     # the attribute line was code after all
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { lines[FILENAME]++; total++ }
        END {
            for (i = 1; i < ARGC; i++) printf "%6d  %s\n", lines[ARGV[i]], ARGV[i]
            print total + 0
        }
    ' "$@"
}

grand=0
for arg in "$@"; do
    if [ -d "$arg" ]; then
        # shellcheck disable=SC2046
        out=$(count $(find "$arg" -name '*.rs' | sort))
        label="${arg%/} (subtotal)"
    else
        out=$(count "$arg")
        label=
    fi
    sub=$(printf '%s\n' "$out" | tail -n 1)
    printf '%s\n' "$out" | sed '$d'
    if [ -n "$label" ]; then
        printf '%6d  %s\n' "$sub" "$label"
    fi
    grand=$((grand + sub))
done
printf '%6d  total\n' "$grand"
