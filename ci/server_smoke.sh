#!/usr/bin/env bash
# Live-server smoke test: boot prefsql-server on an ephemeral port,
# replay ci/smoke_session.txt through prefsql-client, and require the
# transcript to match ci/smoke_session.expected byte for byte.
# The client itself exits non-zero if any request answered ERROR.
set -euo pipefail
cd "$(dirname "$0")/.."

server=target/release/prefsql-server
client=target/release/prefsql-client
if [ ! -x "$server" ] || [ ! -x "$client" ]; then
    cargo build --release -p prefsql-server
fi

log=$(mktemp)
# The golden transcript contains an EXPLAIN, which names the session's
# parallel degree when it is above 1: pin it so the transcript does not
# depend on the runner's width.
PREFSQL_THREADS=1 "$server" 127.0.0.1:0 >"$log" &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true' EXIT

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^prefsql-server listening on //p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "server never reported its listening address" >&2
    cat "$log" >&2
    exit 1
fi

got=$(mktemp)
"$client" "$addr" <ci/smoke_session.txt >"$got"
diff -u ci/smoke_session.expected "$got"
echo "smoke session OK against $addr"

# ---- observability leg: METRICS verb + slow-query log -----------------
# Counter values and timings are nondeterministic, so this leg greps for
# structure instead of diffing a golden transcript. A 0 ms threshold
# makes every statement "slow".
slow_log=$(mktemp)
log2=$(mktemp)
"$server" 127.0.0.1:0 --slow-query-ms 0 >"$log2" 2>"$slow_log" &
slow_pid=$!
trap 'kill "$server_pid" "$slow_pid" 2>/dev/null || true' EXIT

addr2=""
for _ in $(seq 1 100); do
    addr2=$(sed -n 's/^prefsql-server listening on //p' "$log2")
    [ -n "$addr2" ] && break
    sleep 0.1
done
if [ -z "$addr2" ]; then
    echo "slow-query server never reported its listening address" >&2
    cat "$log2" >&2
    exit 1
fi

metrics_out=$(mktemp)
"$client" "$addr2" >"$metrics_out" <<'EOF'
CREATE TABLE trips (dest VARCHAR, duration INTEGER)
INSERT INTO trips VALUES ('Rome', 10), ('Oslo', 14), ('Pisa', 21)
\mode native
SELECT dest FROM trips PREFERRING duration AROUND 12
METRICS
\q
EOF

# The registry saw the statements and ships key<TAB>value payload lines.
# (AROUND 12 has no perfect match among the trips, so the window runs and
# dominance tests are made; AROUND 14 would be answered by the pre-pass.)
total=$(sed -n 's/^| statements\.total\t//p' "$metrics_out")
if [ -z "$total" ] || [ "$total" -lt 3 ]; then
    echo "METRICS reply missing or implausible statements.total: '$total'" >&2
    cat "$metrics_out" >&2
    exit 1
fi
grep -q '^| exec\.dominance_tests	[1-9]' "$metrics_out" || {
    echo "METRICS reply missing nonzero exec.dominance_tests" >&2
    cat "$metrics_out" >&2
    exit 1
}

# Every statement crossed the 0 ms bar and was logged with its plan.
grep -q '^\[slow query\] .* ms: SELECT dest FROM trips' "$slow_log" || {
    echo "slow-query log missing the SELECT" >&2
    cat "$slow_log" >&2
    exit 1
}
grep -q 'actual rows=' "$slow_log" || {
    echo "slow-query log missing the analyzed plan" >&2
    cat "$slow_log" >&2
    exit 1
}
echo "METRICS + slow-query log OK against $addr2"
