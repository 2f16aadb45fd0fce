#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's bounds?
#
# Runs the suite RUNS times (default 5) for set A and for set B,
# alternating, every run with a seed of its own, untraced and traced; then
# prints the agreement table (non-zero exit on a breach) and folds all
# runs into ledger/BENCH_<PR>.json. Takes RUNS × 2 × ~5.5 min.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${RUNS:-5}"
pr="${PR:-14}"
records="$here/out/agree"
rm -rf "$records"
mkdir -p "$records" "$here/ledger"

for i in $(seq 1 "$runs"); do
    for set in A B; do
        seed=$((1000 + 2 * i))
        [ "$set" = B ] && seed=$((seed + 1))
        for trace in 0 1; do
            bash "$here/run.sh" --seed "$seed" --trace "$trace" \
                --record "$records/$set$i.jsonl" >/dev/null
        done
        echo "set $set run $i done (seed $seed)" >&2
    done
done

sha="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
bash "$here/run.sh" --ledger "$here/ledger/BENCH_$pr.json" --sha "$sha" "$records"/*.jsonl
bash "$here/run.sh" --agree "$records"/A*.jsonl -- "$records"/B*.jsonl | tee "$records/agreement.txt"
