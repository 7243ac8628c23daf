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
# The counters do not depend on the host's width: no workload class
# reaches `prefsql_pref::PARALLEL_CUTOFF` candidates, so the parallel
# window never cuts partitions. A class that does would make
# `pref.dominance_tests` depend on how many CPUs the run sees.
set -euo pipefail
cd "$(dirname "$0")/.."

expected=ci/bench_counters.expected
counters='pref.dominance_tests|engine.rows_scanned|engine.subquery_evals|engine.index_probes|engine.view_hits|engine.views_maintained'

cargo build --release --quiet --manifest-path prefbench/Cargo.toml --bin prefbench
got=$(mktemp)
for workload in jobsearch_rewrite skyline_native wire_short view_dml_mix; do
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
