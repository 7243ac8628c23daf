#!/usr/bin/env bash
# Non-test source lines per crate and in total: every crates/*/src/**/*.rs
# file counted up to its first `#[cfg(test)]` line (the whole file when
# it has none). This is the size measure ROADMAP.md and CHANGES.md quote.
# It only prints; it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    n=0
    while IFS= read -r -d '' file; do
        lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        n=$((n + lines))
    done < <(find "$src" -name '*.rs' -print0)
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
