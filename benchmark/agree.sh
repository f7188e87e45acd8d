#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own
# bounds? Runs every workload of BENCHMARK.json RUNS times (default 5, each
# with another seed) twice over, back to back, and exits non-zero if, for
# any end-to-end metric on any workload, the second set's median is worse
# than the first's by more than the metric's bound. Also prints each
# metric's spread (interquartile distance over median) per set.
#
#   benchmark/agree.sh [RUNS]
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
runs=${1:-5}
out=${DFBENCH_OUT:-$here/out}/agree
mkdir -p "$out"
workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")

for set in 1 2; do
  : > "$out/set$set.jsonl"
  for w in $workloads; do
    for i in $(seq 1 "$runs"); do
      seed=$((set * 1000 + i))
      echo "set $set: $w seed $seed" >&2
      line=$("$here/run.sh" --workload "$w" --seed "$seed" --trace 0 | tail -n 1)
      echo "{\"workload\": \"$w\", \"result\": $line}" >> "$out/set$set.jsonl"
    done
  done
done

python3 - "$root/BENCHMARK.json" "$out/set1.jsonl" "$out/set2.jsonl" <<'PY'
import json, statistics, sys
spec = json.load(open(sys.argv[1]))
def load(path):
    values = {}
    for line in open(path):
        row = json.loads(line)
        for name, m in row["result"]["metrics"].items():
            values.setdefault((row["workload"], name), []).append(m["value"])
    return values
def spread(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)
first, second = load(sys.argv[2]), load(sys.argv[3])
bad = 0
print(f"{'workload':18} {'metric':18} {'median 1':>14} {'median 2':>14} {'worse by':>9} {'bound':>7} {'spread 1':>9} {'spread 2':>9}")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        a, b = first[(w["name"], m["name"])], second[(w["name"], m["name"])]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        flag = ""
        if worse > m["bound"]:
            bad += 1
            flag = "  <-- disagrees"
        print(f"{w['name']:18} {m['name']:18} {ma:14.6f} {mb:14.6f} {worse:9.4f} {m['bound']:7.4f} {spread(a):9.4f} {spread(b):9.4f}{flag}")
sys.exit(1 if bad else 0)
PY
