#!/usr/bin/env bash
# A/A check: run the suite as two sets of RUNS runs per workload (seeds
# 1..RUNS, the same in both sets) on the same tree, and print for every
# workload x end-to-end metric the two medians, how much worse the second
# is than the first, and each set's spread (quartile distance over median)
# next to the metric's bound from BENCHMARK.json. Exits non-zero if a
# disagreement or a spread (setup_s excepted for the spread) exceeds its
# bound, or any run reports a wrong answer.
#
#   benchmark/aa.sh [RUNS]      RUNS defaults to 10 (about 42 minutes)
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-10}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
mkdir -p benchmark/out
results=benchmark/out/aa-results.jsonl
: > "$results"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for set in A B; do
    for workload in $workloads; do
        for seed in $(seq 1 "$runs"); do
            line="$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
            echo "{\"set\": \"$set\", \"workload\": \"$workload\", \"seed\": $seed, \"result\": $line}" >> "$results"
        done
        echo "set $set: $workload done" >&2
    done
done

python3 - "$results" <<'PY'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
bad = [r for r in rows if not r["result"]["correct"] or r["result"]["failed"]]

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print(f"{'workload':<15}{'metric':<18}{'median A':>14}{'median B':>14}{'B worse by':>12}{'spread A':>10}{'spread B':>10}{'bound':>8}")
failed = bool(bad)
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        sets = []
        for s in "AB":
            sets.append([r["result"]["metrics"][m["name"]]["value"] for r in rows
                         if r["set"] == s and r["workload"] == w["name"]])
        a, b = (statistics.median(v) for v in sets)
        worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
        spreads = [spread(v) for v in sets]
        over = worse > m["bound"] or (m["name"] != "setup_s" and max(spreads) > m["bound"])
        failed |= over
        print(f"{w['name']:<15}{m['name']:<18}{a:>14.4f}{b:>14.4f}{worse:>11.2%} {spreads[0]:>9.2%} {spreads[1]:>9.2%} {m['bound']:>7.0%}"
              + ("  OVER" if over else ""))
for r in bad:
    print(f"wrong answers: set {r['set']} {r['workload']} seed {r['seed']}: {r['result']['failed']} of {r['result']['attempted']} failed")
sys.exit(1 if failed else 0)
PY
