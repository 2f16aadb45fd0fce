#!/usr/bin/env bash
# Smoke test: all four workloads with 2 s windows; every one must report
# `correct true` and `failed 0`. Not wired into verify.sh or CI (those
# files are outside the benchmark's paths); run it by hand.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(bash "$here/run.sh" --quick --seed "${SEED:-1}" --trace 0)"
echo "$out"
passed="$(grep -c '^attempted [0-9]* failed 0 correct true$' <<<"$out" || true)"
if [ "$passed" -ne 4 ]; then
    echo "smoke: $passed of 4 workloads passed" >&2
    exit 1
fi
echo "smoke: 4 of 4 workloads correct, 0 failed"
