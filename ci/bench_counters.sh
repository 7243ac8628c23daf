#!/usr/bin/env bash
# Noise-free benchmark gate: run every prefbench workload once at the
# quick scale with tracing on and require the exact counters — the
# metrics whose unit is `count` and that no timing can move — to equal
# ci/bench_counters.expected to the last digit. A change that makes a
# workload scan, probe, maintain or test more (or less) than the commit
# that recorded the file fails here, on any host, without a timing run.
#
#   ci/bench_counters.sh            # check
#   ci/bench_counters.sh --bless    # re-record after an intended change
#
# `pref.dominance_tests` depends on how many partitions the parallel
# window cuts (the session's default thread count is the host's width),
# so the run is pinned to two CPUs; a one-CPU host cannot reproduce the
# numbers and is skipped, loudly.
set -euo pipefail
cd "$(dirname "$0")/.."

expected=ci/bench_counters.expected
counters='pref.dominance_tests|engine.rows_scanned|engine.subquery_evals|engine.index_probes|engine.view_hits|engine.views_maintained'

ids=()
IFS=, read -ra parts <<<"$(awk '/^Cpus_allowed_list/ {print $2}' /proc/self/status)"
for p in "${parts[@]}"; do
    if [[ $p == *-* ]]; then
        for i in $(seq "${p%-*}" "${p#*-}"); do ids+=("$i"); done
    else
        ids+=("$p")
    fi
done
if [ "${#ids[@]}" -lt 2 ] || ! command -v taskset >/dev/null; then
    echo "bench_counters: SKIPPED — needs taskset and two CPUs to pin the parallel window's degree" >&2
    exit 0
fi

cargo build --release --quiet --manifest-path prefbench/Cargo.toml --bin prefbench
got=$(mktemp)
for workload in jobsearch_rewrite skyline_native wire_short view_dml_mix; do
    taskset -c "${ids[0]},${ids[1]}" \
        cargo run --release --quiet --manifest-path prefbench/Cargo.toml --bin prefbench -- \
        --workload "$workload" --seed 1 --quick --trace 1 |
        awk -v w="$workload" -v keep="^($counters)\$" \
            '$3 == "count" && $1 ~ keep { printf "%s %s %d\n", w, $1, $2 }' >>"$got"
done

if [ "${1:-}" = "--bless" ]; then
    cp "$got" "$expected"
    echo "recorded $(wc -l <"$expected") counters in $expected"
else
    diff -u "$expected" "$got"
    echo "bench counters OK ($(wc -l <"$got") exact matches)"
fi
