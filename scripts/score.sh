#!/usr/bin/env bash
# The size-and-options score simplicity PRs quote, from a command: run it at
# the parent commit and at the change and paste both lines into CHANGES.md.
# Prints only; never fails a build.
set -uo pipefail

cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.rs' -print0 2>/dev/null | xargs -0 cat 2>/dev/null | wc -l; }

# `pub field: Type,` lines of one `pub struct`, first definition in the file.
fields() {
  awk -v s="pub struct $2 " '
    index($0, s) == 1 { inside = 1; next }
    inside && /^}/     { exit }
    inside && /^    pub [a-z_]+:/ { n++ }
    END { print n + 0 }' "$1"
}

product=$(lines crates/*/src src)
replication=$(lines crates/groupcomm/src crates/hdns/src crates/cluster/src crates/shard/src src/serve.rs)
harness=$(lines crates/bench/src crates/simnet/src)
spi=$(lines crates/core/src/spi*)
providers=$(lines crates/providers/src)
env_keys=$(awk '/^pub mod keys/ { inside = 1 } inside && /pub const [A-Z0-9_]+: &str/ { n++ } END { print n + 0 }' crates/core/src/env.rs)

echo "score: product_lines=$product shipped_lines=$((product - harness))" \
  "replication_lines=$replication spi_lines=$spi" \
  "hdns_provider_lines=$(wc -l < crates/providers/src/hdns.rs)" \
  "env_keys=$env_keys" \
  "ClientConfig=$(fields crates/net/src/client.rs ClientConfig)" \
  "ServerConfig=$(fields crates/net/src/shard.rs ServerConfig)" \
  "ClusterConfig=$(fields crates/cluster/src/config.rs ClusterConfig)" \
  "StackConfig=$(fields crates/groupcomm/src/config.rs StackConfig)" \
  "harness_lines=$harness" \
  "bench_targets=$(grep -c '^\[\[bench\]\]' crates/bench/Cargo.toml)" \
  "providers_lines=$providers" \
  "$(bash scripts/unused_pub.sh --count)"
