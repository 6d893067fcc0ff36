#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S]             all six workloads, end-to-end metrics
#   benchmark/run.sh --trace [--seed N] [--seconds S]     all six workloads, per-layer ladder
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                         one workload (the form BENCHMARK.json names)
#
# The last line each workload prints on standard output is its result as
# one JSON object; the same values are listed by name and unit on standard
# error. Exits non-zero if the build fails or any answer is wrong.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# Pin the whole process to the last CPU it may use. The client and the
# service's one worker never run at the same time in a closed loop, so one
# CPU costs no parallelism; it spares every hand-off a cross-CPU wake-up,
# whose latency in this VM swings with the host's load, and leaves the
# other CPU to the rest of the machine.
bin=("$target/release/nnlqp-benchmark")
if command -v taskset > /dev/null; then
    cpu="$(awk '/^Cpus_allowed_list:/ { n = split($2, a, /[,-]/); print a[n] }' /proc/self/status)"
    bin=(taskset -c "$cpu" "${bin[@]}")
else
    echo "run.sh: taskset not found, running unpinned" >&2
fi

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "${bin[@]}" "$@"
    fi
done

trace=0
args=()
for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then trace=1; else args+=("$arg"); fi
done
status=0
for workload in query-hot query-db query-miss predict-cold predict-cached train; do
    "${bin[@]}" --workload "$workload" --trace "$trace" "${args[@]}" || status=1
done
if [ "$trace" = 1 ]; then
    # One report for the suite: the per-workload layer files, keyed by workload.
    {
        echo "{"
        sep=""
        for workload in query-hot query-db query-miss predict-cold predict-cached train; do
            printf '%s"%s": ' "$sep" "$workload"
            cat "benchmark/out/layers-$workload.json"
            sep=","
        done
        echo "}"
    } > benchmark/out/layers.json
    echo "wrote benchmark/out/layers.json and benchmark/out/trace-<workload>.json" >&2
fi
exit "$status"
