#!/usr/bin/env bash
# The one command of the repo benchmark.
#
#   bash benchmark/run.sh                      # the four workloads, 30 s each
#   bash benchmark/run.sh --quick              # 2 s windows, for smoke use
#   bash benchmark/run.sh --workload fed_resolve --seed 7 --seconds 30 --trace 0
#
# Builds the benchmark crate (release, offline) and runs it. With
# --workload it runs that one workload and the last line of standard output
# is its JSON result; without, it runs all four in a fixed order. Extra
# flags (--record <file>, --out-dir <dir>) pass through to the binary, and
# so do the two report modes:
#
#   bash benchmark/run.sh --agree <set A records...> -- <set B records...>
#   bash benchmark/run.sh --ledger <out.json> --sha <git sha> <records...>
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin="${CARGO_TARGET_DIR:-$here/target}/release/rndi-perfbench"
# No pinning, no nice: the workloads keep their busy threads at or under
# two, and the server's event loop needs a core of its own to spin on.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

case "${1:-}" in
    --agree | --ledger) exec "$bin" "$@" ;;
esac

workload=""
seconds=30
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --quick) seconds=2; shift ;;
        *) pass+=("$1"); shift ;;
    esac
done

run() {
    "$bin" --workload "$1" --seconds "$seconds" --out-dir "$here/out" ${pass[@]+"${pass[@]}"}
}

if [ -n "$workload" ]; then
    run "$workload"
else
    for w in wire_lockstep wire_pipelined fed_resolve replica_write; do
        echo "== $w"
        run "$w"
    done
fi
