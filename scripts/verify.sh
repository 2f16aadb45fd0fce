#!/usr/bin/env bash
# Workspace verification — the one script CI calls: build, each test target
# once, formatting, lints, bench builds, example outputs, the smoke run of
# the separately-workspaced benchmark/ crate (so deleting product API it
# compiles against fails here, not in the pipeline), and the size score.
# Everything runs offline — all dependencies are vendored under vendor/.
# fmt/clippy run on the product crates only: the vendored stand-ins keep
# their upstream-derived style and are exempt from local lint policy.
set -euo pipefail

cd "$(dirname "$0")/.."

PRODUCT_CRATES=(
  rndi rndi-core rndi-obs rndi-net rndi-shard rndi-cluster simnet groupcast
  rlus hdns minidns dirserv rndi-providers rndi-bench
)
pkg_flags=()
for crate in "${PRODUCT_CRATES[@]}"; do
  pkg_flags+=(-p "$crate")
done

echo "==> cargo build --release"
cargo build --release --workspace

# The oracle and codec proptests, the federation matrix, the directory's and
# the HDNS replica's byte budgets and the resolver's line count are skipped
# here and named below, so each still runs once, as is the compaction's heap
# peak. (The two single-binary allocation budgets, tests/federation_allocs.rs
# and tests/hdns_write_allocs.rs's rebind budget, run here.)
NAMED_BELOW=(the_walk_matches_its_oracle read_is_a_base_scope_match_all_search wire_codec_
  every_operation_continues_through_a_mount_on_every_provider
  a_bound_leaf_stays_inside_its_byte_budget
  a_stored_binding_stays_inside_its_byte_budget a_replica_read_touches_no_heap
  federated_lookups_cache_one_line_per_denied_subtree
  compaction_peak_heap_stays_near_the_snapshot_length
  random_fault_schedules_lose_no_acknowledged_write)
echo "==> cargo test -q (all but hdns, the oracle proptests, the federation matrix, the budgets and the cluster's random schedules)"
cargo test -q --workspace --exclude hdns -- "${NAMED_BELOW[@]/#/--skip=}"

# Named on its own because it is the federation contract: every writable
# provider x every name-taking operation continues through a bound link. A
# failure prints each cell that does not, as `provider/op(name): got ...`.
echo "==> federation matrix: 5 providers x 17 operations continue through a mount"
cargo test -q --test heterogeneity every_operation_continues_through_a_mount_on_every_provider

# Named on their own because they pin rewritten code to the code it
# replaced: the DNS provider's one-build prefix walk against the per-prefix
# oracle, Connection::read against a base-scope search, and the HDNS store of
# shared records against the path-keyed map it was. A failure prints the
# case number and the seed that replays it (the store's, also the op
# sequence shrunk to the ops it fails with).
echo "==> oracle proptests: dns walk, ldap read, hdns store"
cargo test -q -p rndi-providers --lib the_walk_matches_its_oracle
cargo test -q -p dirserv --test props read_is_a_base_scope_match_all_search
cargo test -q -p hdns --test store_oracle the_store_matches_its_oracle

# Named on their own so the figures are in every log: the live heap bytes
# one bound leaf of fed_resolve's shape leaves in dirserv and one binding of
# the wire store leaves in an HDNS replica (whose reads allocate nothing),
# the lines and upstream queries fed_resolve's DNS leg leaves in the resolver
# (RFC 8020 denial), and the heap one compaction of replica_write's store
# peaks at, each against its budget.
echo "==> budgets: what dirserv and an HDNS replica hold per binding, what the resolver caches, what a compaction peaks at"
cargo test -q --test ldap_footprint a_bound_leaf_stays_inside_its_byte_budget -- --nocapture
cargo test -q --test hdns_footprint -- --nocapture
cargo test -q --test dns_denial federated_lookups_cache_one_line_per_denied_subtree -- --nocapture
cargo test -q --test hdns_write_allocs compaction_peak_heap_stays_near_the_snapshot_length -- --nocapture

# Named on its own because it is the cluster's model check: 64 seeded
# schedules of crashes, restarts, cuts, loss, duplication, reordering and
# clock offsets on the production node logic, every write held to its
# outcome. A failure prints the seed and the fault schedule that replay it.
echo "==> cluster simulation: 64 random fault schedules"
cargo test -q -p rndi-cluster --test sim_chaos random_fault_schedules_lose_no_acknowledged_write

# Named on its own because `Wire::{encode, decode, size}` is what group
# flow control charges and what rndi-cluster puts on TCP: round trips,
# size() == encode().len(), strict rejection and a measured allocation bound
# on hostile frames. A failure prints the case number and seed.
echo "==> codec proptests: groupcast wire frames"
cargo test -q -p groupcast --test wire_codec

# Named on its own because it is the durability contract: tests/crash_points.rs
# crashes a replica at every storage call under process kill and power loss,
# and the unit tests hold the proposal codec (`proposal_codec_*`: what the
# op log's records are) to its round trip, its JSON-era oracle and hostile
# input. A failure prints the seed, crash model and boundary that replay it.
echo "==> cargo test -q -p hdns (unit tests + proposal codec + the crash-point suite)"
cargo test -q -p hdns -- --skip the_store_matches_its_oracle

echo "==> cargo fmt --check"
cargo fmt --check "${pkg_flags[@]}"

echo "==> cargo clippy -D warnings"
cargo clippy "${pkg_flags[@]}" --all-targets -- -D warnings

# A doc link to an item that is gone or private is a broken page.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q "${pkg_flags[@]}"

# Public items that nothing outside their own file and crate tests names
# (scripts/unused_pub.sh). Each one left is kept with a `//` reason; the
# ceiling is what is left, so a new one must be used, narrowed, or paid for
# by deleting another.
UNUSED_PUB_CEILING=28
echo "==> unused_pub census: at most $UNUSED_PUB_CEILING"
census="$(bash scripts/unused_pub.sh)"
if [ "${census##*unused_pub=}" -gt "$UNUSED_PUB_CEILING" ]; then
  echo "$census" >&2
  echo "verify: unused_pub rose above $UNUSED_PUB_CEILING (the list is above)" >&2
  exit 1
fi

echo "==> cargo build --examples"
cargo build --examples

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> examples run end to end"
remote_out="$(cargo run -q --example remote_hdns)"
grep -q "lookup via node 1" <<<"$remote_out"
grep -q "remote_hdns OK"    <<<"$remote_out"
shard_out="$(cargo run -q --example sharded_namespace)"
grep -q "root list (4 entries)" <<<"$shard_out"
grep -q "sharded_namespace OK"  <<<"$shard_out"
top_out="$(cargo run -q --example cluster_top)"
grep -q 'instance="cluster"' <<<"$top_out"
grep -q 'instance="shard-0"' <<<"$top_out"
grep -q 'instance="shard-3"' <<<"$top_out"
grep -q "cluster_top OK"     <<<"$top_out"
ft_out="$(cargo run -q --example fault_tolerance)"
grep -q "unclean stop lost no acknowledged write: OK" <<<"$ft_out"
grep -q "fault tolerance example OK"                  <<<"$ft_out"
member_out="$(cargo run -q --example cluster_membership)"
grep -q "rndi_cluster_members"   <<<"$member_out"
grep -q "converged"              <<<"$member_out"
grep -q "cluster_membership OK"  <<<"$member_out"

echo "==> obs smoke: the figure runner's fig8 with RNDI_OBS_DUMP emits the exposition"
fig8_out="$(RNDI_BENCH_QUICK=1 RNDI_OBS_DUMP=1 cargo bench -p rndi-bench --bench figures 2>/dev/null -- fig8)"
grep -q "obs dump: metrics exposition" <<<"$fig8_out"
grep -q "rndi_ops_total"               <<<"$fig8_out"
grep -q "rndi_op_duration_ns_bucket"   <<<"$fig8_out"
grep -q "slowest traces"               <<<"$fig8_out"

# The figures come from one runner and their numbers from its output: a doc,
# script or manifest that still names the hand-kept capture or a folded bench
# target points a reader at something that no longer exists. Source files are
# searched only for the capture and for `--bench <old target>` invocations, so
# the old words stay free as identifiers. The four wall-clock targets whose
# numbers became `cargo test` assertions are searched for everywhere, as whole
# words (`rndi_net_concurrency_limit` is a live metric). (CHANGES/ROADMAP/ISSUE
# are history; this script holds the list.)
echo "==> no doc, script or manifest names a deleted artefact"
GONE='fig2_jini_lookup|fig3_jini_rebind|fig4_hdns_lookup|fig5_hdns_rebind|fig6_dns_lookup|fig7_ldap|fig8_federation|ablation_stack|ablation_flowctl|ablation_bindproxy|scale_federation|obs_overhead|spi_overhead'
WALL_CLOCK='net_concurrency|overload_goodput|readpath_scale|shard_scale'
HISTORY=(':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!REVIEW.md' ':!scripts/verify.sh')
if git grep -n -E "bench_figures\\.txt|--bench +($GONE)" -- . "${HISTORY[@]}" ||
   git grep -n -E "$GONE" -- '*.md' '*.toml' '*.yml' 'scripts/' "${HISTORY[@]}" ||
   git grep -n -w -E "$WALL_CLOCK" -- . "${HISTORY[@]}"; then
  echo "verify: the files above still name a deleted bench artefact" >&2
  exit 1
fi
# Likewise the pipeline's second stats path: an op is counted once, by
# ObsInterceptor into the rndi-obs registry, and read from there.
STATS_PATH='StatsInterceptor|PipelineStats|rndi_pipeline_|telemetry::(render|reset|register)'
if git grep -n -E "$STATS_PATH" -- '*.rs' '*.md' '*.toml' 'scripts/' "${HISTORY[@]}"; then
  echo "verify: the files above still name the deleted pipeline stats path" >&2
  exit 1
fi

# Where a namespace ends is decided in rndi_core::spi::boundary alone: a
# provider answers its probe and nothing else about federation. Only the part
# of each file above its unit tests is searched — tests match on `Continue`.
echo "==> no provider decides federation for itself"
for f in crates/providers/src/*.rs; do
  if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
     grep -E 'NamingError::Continue|is_federation_link'; then
    echo "verify: $f constructs Continue or tests for a link outside spi::boundary" >&2
    exit 1
  fi
done

echo "==> benchmark smoke: the separately-workspaced benchmark/ crate builds and runs"
bash benchmark/smoke.sh

echo "==> score: code size and option counts (printed; gates nothing)"
bash scripts/score.sh || true

echo "verify: OK"
