#!/usr/bin/env bash
# Parent-vs-change pairs on the end-to-end benchmark — the method every
# reports/prNN-parent-vs-change.md since PR 12 was made by, as one command.
#
#   scripts/pair.sh <parent-ref> [--pairs N] [--workload W]... [--pr NN]
#                   [--seconds S] [--seed-base B] [--traced] [--tmp DIR] [--keep]
#   scripts/pair.sh --report reports/prNN-runs.jsonl
#
# Copies <parent-ref> (`git archive`) and the working tree (tracked plus
# untracked-unignored files) side by side under a temporary directory,
# gives each side its own CARGO_TARGET_DIR and DFBENCH_OUT, and runs
# `benchmark/run.sh --workload W --seconds S --seed B+pair-1` N times per
# side: parent first on odd pairs, change first on even ones, the
# workloads interleaved inside a pair round. --traced adds one
# `--trace 1` run per side and workload at the end (the per-layer table).
# Every run's JSON result is appended, as one line, to
# reports/prNN-runs.jsonl (NN from --pr, default "XX"); the tables are
# printed from that file, as markdown, on standard output — so
# `--report FILE` reprints them without running anything.
#
# Defaults: 10 pairs, every workload of BENCHMARK.json, its run_seconds,
# seed base 42 (pair 1 runs the harness's default seed). Keep the host
# idle meanwhile. Uses git, tar and cargo, and awk for the numbers.
#
# Per metric and workload the table gives both medians and quartiles
# (linear interpolation between order statistics), change / parent,
# "worse by" (signed so that positive = change worse), the BENCHMARK.json
# bound, each side's spread (interquartile distance / median), the pairs
# the change won (ties left out), and a verdict:
#   WORSE THAN BOUND  worse by more than the bound
#   unresolved        a side's spread exceeds the bound and the two sides'
#                     runs overlap: neither "unchanged" nor "worse"
#   better            ten pairs or more, change wins >= 9/10 of the decided
#                     ones and the medians differ by more than the
#                     parent's interquartile distance (what a claim needs)
#   within bound      everything else
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

usage() {
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p;}' "${BASH_SOURCE[0]}" >&2
    exit 2
}

parent= pairs=10 pr=XX seconds= seed_base=42 traced=0 tmp= keep=0 report_only=
workloads=()
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=$2; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --pr) pr=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --seed-base) seed_base=$2; shift 2 ;;
        --traced) traced=1; shift ;;
        --tmp) tmp=$2; shift 2 ;;
        --keep) keep=1; shift ;;
        --report) report_only=$2; shift 2 ;;
        -h | --help) usage ;;
        -*) echo "pair.sh: unknown option $1" >&2; usage ;;
        *) [ -z "$parent" ] || usage; parent=$1; shift ;;
    esac
done

spec=$root/BENCHMARK.json
if [ ${#workloads[@]} -eq 0 ]; then
    # The names of the "workloads" array: one "name" line per entry.
    mapfile -t workloads < <(awk -F'"' '
        /"workloads": \[/ { on = 1; next }
        on && /^  \]/ { exit }
        on && /"name":/ { print $4 }' "$spec")
fi
[ -n "$seconds" ] || seconds=$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' "$spec")

# --- the tables -----------------------------------------------------------

report() {
    awk -v nproc="$(nproc)" -v rustc="$(rustc --version 2>/dev/null || echo unknown)" '
    function strval(s) { sub(/^[^:]*: *"/, "", s); sub(/".*$/, "", s); return s }
    function numval(s) { sub(/^[^:]*: */, "", s); return s + 0 }
    # A top-level field of a run line written by pair.sh (number or string).
    function field(line, name,    key, i, rest) {
        key = "\"" name "\": "
        i = index(line, key)
        if (!i) return ""
        rest = substr(line, i + length(key))
        if (substr(rest, 1, 1) == "\"") { rest = substr(rest, 2); sub(/".*$/, "", rest); return rest }
        match(rest, /^-?[0-9.eE+-]+/)
        return substr(rest, 1, RLENGTH)
    }
    function metric(line, name,    key, i, rest) {
        key = "\"" name "\": {\"value\": "
        i = index(line, key)
        if (!i) return ""
        rest = substr(line, i + length(key))
        match(rest, /^-?[0-9.eE+-]+/)
        return substr(rest, 1, RLENGTH) + 0
    }
    # Sorts a[1..n] in place (n is a few dozen at most).
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    }
    # Quantile p of sorted a[1..n], linear interpolation between order statistics.
    function quant(a, n, p,    h, lo) {
        if (n == 1) return a[1]
        h = (n - 1) * p + 1; lo = int(h)
        if (lo >= n) return a[n]
        return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function fmt(x) { return sprintf("%.4g", x) }
    function pct(x) { return sprintf("%+.1f %%", 100 * x) }

    # 1st file: BENCHMARK.json (pretty-printed, one key per line).
    FNR == NR {
        if ($0 ~ /"workloads": \[/) sec = "w"
        else if ($0 ~ /"end_to_end": \[/) sec = "e"
        else if ($0 ~ /"per_layer": \[/) sec = "l"
        else if ($0 ~ /"name":/) {
            if (sec == "w") wname[++nw] = strval($0)
            else if (sec == "e") ename[++ne] = strval($0)
            else if (sec == "l") lname[++nl] = strval($0)
        }
        else if ($0 ~ /"better":/ && sec == "e") ebetter[ne] = strval($0)
        else if ($0 ~ /"bound":/ && sec == "e") ebound[ne] = numval($0)
        next
    }
    # 2nd file: one run per line.
    {
        w = field($0, "workload"); side = field($0, "side"); pair = field($0, "pair") + 0
        ref[side] = field($0, "ref"); secs = field($0, "seconds")
        if (field($0, "trace") + 0) {
            traced[w] = 1
            for (i = 1; i <= nl; i++) tv[w, side, i] = metric($0, lname[i])
            next
        }
        if (pair > npairs[w]) npairs[w] = pair
        runs++
        order[w, side, pair] = field($0, "order"); seed[w, pair] = field($0, "seed")
        for (i = 1; i <= ne; i++) v[w, side, i, pair] = metric($0, ename[i])
        att[w, side, pair] = field($0, "attempted"); fail[w, side, pair] = field($0, "failed")
        if (index($0, "\"correct\": true") == 0) wrong[w]++
        failed[w] += fail[w, side, pair]
    }
    END {
        printf "Generated by `scripts/pair.sh` from %d end-to-end runs: parent `%s`, change `%s`, ", runs, ref["parent"], ref["change"]
        printf "`benchmark/run.sh --seconds %s`, host %d vCPU, %s. ", secs, nproc, rustc
        printf "Quartiles are linear interpolations between order statistics; spread = (Q3 − Q1) / median.\n"
        for (wi = 1; wi <= nw; wi++) {
            w = wname[wi]
            if (!npairs[w]) continue
            n = npairs[w]
            printf "\n**`%s`** — %d pairs, failed requests: %d, incorrect runs: %d\n\n", w, n, failed[w], wrong[w]
            print "| metric | parent median (Q1–Q3) | change median (Q1–Q3) | change / parent | worse by | bound | parent spread | change spread | change better in | verdict |"
            print "|---|---:|---:|---:|---:|---:|---:|---:|---:|---|"
            for (i = 1; i <= ne; i++) {
                np = 0; wins = 0; decided = 0
                for (p = 1; p <= n; p++) {
                    if (!((w, "parent", i, p) in v) || !((w, "change", i, p) in v)) continue
                    np++; a[np] = v[w, "parent", i, p]; b[np] = v[w, "change", i, p]
                    if (a[np] != b[np]) {
                        decided++
                        if ((ebetter[i] == "lower") == (b[np] < a[np])) wins++
                    }
                }
                sort(a, np); sort(b, np)
                pm = quant(a, np, .5); p1 = quant(a, np, .25); p3 = quant(a, np, .75)
                cm = quant(b, np, .5); c1 = quant(b, np, .25); c3 = quant(b, np, .75)
                lower = ebetter[i] == "lower"
                worse = pm ? (lower ? (cm - pm) / pm : (pm - cm) / pm) : 0
                ps = pm ? (p3 - p1) / pm : 0; cs = cm ? (c3 - c1) / cm : 0
                apart = lower ? b[np] < a[1] : b[1] > a[np]      # every change run beats every parent run
                gap = cm > pm ? cm - pm : pm - cm
                if (worse > ebound[i]) verdict = "**WORSE THAN BOUND**"
                else if ((ps > ebound[i] || cs > ebound[i]) && !apart) verdict = "unresolved (spread > bound)"
                else if (worse < 0 && np >= 10 && wins >= 0.9 * decided && gap > p3 - p1) verdict = "**better**"
                else verdict = "within bound"
                printf "| `%s` | %s (%s–%s) | %s (%s–%s) | %s | %s | %s %% | %.1f %% | %.1f %% | %d/%d | %s |\n", \
                    ename[i], fmt(pm), fmt(p1), fmt(p3), fmt(cm), fmt(c1), fmt(c3), \
                    (pm ? sprintf("%.3f", cm / pm) : "–"), pct(worse), fmt(100 * ebound[i]), 100 * ps, 100 * cs, wins, decided, verdict
            }
            printf "\n<details><summary>every run</summary>\n\n| pair | seed | side | order |"
            for (i = 1; i <= ne; i++) printf " %s |", ename[i]
            printf " attempted | failed |\n|---|---|---|---|"
            for (i = 1; i <= ne + 2; i++) printf "---:|"
            printf "\n"
            for (p = 1; p <= n; p++) for (o = 1; o <= 2; o++) for (s = 1; s <= 2; s++) {
                side = s == 1 ? "parent" : "change"
                if (order[w, side, p] != o) continue
                printf "| %d | %s | %s | %d |", p, seed[w, p], side, o
                for (i = 1; i <= ne; i++) printf " %s |", fmt(v[w, side, i, p])
                printf " %d | %d |\n", att[w, side, p], fail[w, side, p]
            }
            printf "\n</details>\n"
        }
        for (wi = 1; wi <= nw; wi++) {
            w = wname[wi]
            if (!(w in traced)) continue
            printf "\n**`%s`** — per layer, one `--trace 1` run per side\n\n", w
            print "| metric | parent | change | change / parent |"
            print "|---|---:|---:|---:|"
            for (i = 1; i <= nl; i++) {
                x = tv[w, "parent", i]; y = tv[w, "change", i]
                printf "| `%s` | %s | %s | %s |\n", lname[i], fmt(x), fmt(y), (x ? sprintf("%.3f", y / x) : "–")
            }
        }
    }' "$spec" "$1"
}

if [ -n "$report_only" ]; then
    report "$report_only"
    exit
fi
[ -n "$parent" ] || usage

# --- the runs -------------------------------------------------------------

parent_sha=$(git -C "$root" rev-parse --short "$parent^{commit}")
change_sha=$(git -C "$root" describe --always --dirty)
tmp=${tmp:-$(mktemp -d)}
rm -rf "$tmp/parent" "$tmp/change" # a reused --tmp keeps only its target dirs
mkdir -p "$tmp/parent" "$tmp/change"
[ "$keep" = 1 ] || trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$parent_sha" | tar -x -C "$tmp/parent"
git -C "$root" ls-files -co --exclude-standard -z |
    while IFS= read -r -d '' f; do
        if [ -e "$root/$f" ]; then printf '%s\0' "$f"; fi
    done | tar -C "$root" --null -T - -cf - | tar -x -C "$tmp/change"
if ! diff -r "$tmp/parent/benchmark" "$tmp/change/benchmark" >&2 ||
    ! cmp "$tmp/parent/BENCHMARK.json" "$tmp/change/BENCHMARK.json" >&2; then
    echo "pair.sh: the two sides do not run the same benchmark" >&2
    exit 1
fi

log=$root/reports/pr$pr-runs.jsonl
mkdir -p "$root/reports"

# run <side> <pair> <order> <trace> <workload>: one benchmark run, one line.
run() {
    local side=$1 pair=$2 order=$3 trace=$4 w=$5 sha line seed
    seed=$((seed_base + pair - 1))
    if [ "$side" = parent ]; then sha=$parent_sha; else sha=$change_sha; fi
    echo "pair $pair/$pairs  $w  $side (order $order, seed $seed, trace $trace)" >&2
    line=$(cd "$tmp/$side" && CARGO_TARGET_DIR=$tmp/$side-target DFBENCH_OUT=$tmp/$side-out \
        bash benchmark/run.sh --workload "$w" --seconds "$seconds" --seed "$seed" --trace "$trace" | tail -n 1)
    printf '{"pr": "%s", "pair": %d, "side": "%s", "order": %d, "trace": %d, "workload": "%s", "seed": %d, "seconds": %s, "ref": "%s", "result": %s}\n' \
        "$pr" "$pair" "$side" "$order" "$trace" "$w" "$seed" "$seconds" "$sha" "$line" >> "$log"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
    for w in "${workloads[@]}"; do
        run "$first" "$pair" 1 0 "$w"
        run "$second" "$pair" 2 0 "$w"
    done
done
if [ "$traced" = 1 ]; then
    for w in "${workloads[@]}"; do
        run parent 1 1 1 "$w"
        run change 1 2 1 "$w"
    done
fi

report "$log"
