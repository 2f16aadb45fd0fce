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
# the HDNS replica's byte budgets, a composite name's allocations, the
# federated path's allocations and shrinking reallocs and the resolver's line
# count are skipped here and named below, so each still runs once, as is the
# compaction's heap peak. (The HDNS rebind's allocation budget,
# tests/hdns_write_allocs.rs, runs here.)
NAMED_BELOW=(the_walk_matches_its_oracle read_is_a_base_scope_match_all_search wire_codec_
  gossip_codec_ the_record_matches_its_oracle the_tree_matches_its_model
  the_name_matches_its_oracle renaming_an_unbound_name_onto_a_bound_one_is_name_not_found
  a_name_is_one_block_and_its_views_allocate_nothing
  every_operation_continues_through_a_mount_on_every_provider
  a_bound_leaf_stays_inside_its_byte_budget the_tree_and_the_index_stay_inside_their_byte_budgets
  rebinding_every_leaf_does_not_grow_the_directory
  unbinding_every_leaf_returns_the_heap_it_took
  a_warmed_federated_op_shrinks_no_block_in_place
  federated_lookup_and_rebind_stay_inside_their_allocation_budgets
  a_stored_binding_stays_inside_its_byte_budget a_replica_read_touches_no_heap
  federated_lookups_cache_one_line_per_denied_subtree
  compaction_peak_heap_stays_near_the_snapshot_length
  random_fault_schedules_lose_no_acknowledged_write the_codec_
  a_value_round_trip_stays_inside_its_allocation_budget
  a_jini_bind_stays_inside_its_allocation_budget
  a_strict_bind_makes_the_papers_twelve_registrar_calls
  a_pipelined_lookup_stays_inside_its_allocation_budget
  a_lockstep_call_stays_inside_its_allocation_budget)
echo "==> cargo test -q (all but hdns, the oracle proptests, the federation matrix, the budgets and the cluster's random schedules)"
cargo test -q --workspace --exclude hdns -- "${NAMED_BELOW[@]/#/--skip=}"

# Named on its own because it is the federation contract: every writable
# provider x every name-taking operation continues through a bound link. A
# failure prints each cell that does not, as `provider/op(name): got ...`.
echo "==> federation matrix: 5 providers x 17 operations continue through a mount"
cargo test -q --test heterogeneity every_operation_continues_through_a_mount_on_every_provider

# Named on its own because it holds three providers to one answer: renaming
# a name that is not bound onto one that is is NameNotFound on LDAP, HDNS
# and the in-memory provider alike (the directory checks the source first).
echo "==> one rename rule: an unbound source is NameNotFound on ldap, hdns and mem"
cargo test -q --test ldap_names renaming_an_unbound_name_onto_a_bound_one_is_name_not_found

# Named on their own because they pin rewritten code to the code it
# replaced: the DNS provider's one-build prefix walk against the per-prefix
# oracle, Connection::read against a base-scope search, a directory entry's
# one-block record against the attribute list it was, the directory tree of
# one-block entries against a map keyed by folded DN (every op's result,
# every entry's DN, order and attributes), the HDNS store of shared records
# against the path-keyed map it was, and a composite name's one shared
# block against the list of component strings it was. A failure prints the
# case number and the seed that replays it (the record's, the store's and
# the name's, also the sequence shrunk to the steps it fails with; the
# tree's, the op sequence and the step it fails at).
echo "==> oracle proptests: dns walk, ldap read, ldap record, ldap tree, hdns store, composite name"
cargo test -q -p rndi-providers --lib the_walk_matches_its_oracle
cargo test -q -p dirserv --test props read_is_a_base_scope_match_all_search
cargo test -q -p dirserv --test props the_record_matches_its_oracle
cargo test -q -p dirserv --test props the_tree_matches_its_model
cargo test -q -p hdns --test store_oracle the_store_matches_its_oracle
cargo test -q -p rndi-core --test name_oracle the_name_matches_its_oracle -- --nocapture

# Named on its own because it holds the value and attribute codecs to the
# JSON their earlier versions wrote, which they still read: round trips,
# UTF-8, tags no JSON text starts with, refused prefixes and noise. A
# failure prints the seed and the case shrunk to the smallest that fails.
echo "==> codec proptests: values and attribute sets against their JSON"
cargo test -q -p rndi-core --test codec_oracle the_codec_ -- --nocapture

# Named on their own so the figures are in every log: the live heap bytes
# one bound leaf of fed_resolve's shape leaves in dirserv (and, of them,
# what the tree's slot and the index's postings take) and one binding of
# the wire store leaves in an HDNS replica (whose reads allocate nothing),
# what rounds of rebinding every such leaf grow dirserv by (nothing) and
# what unbinding them all leaves behind (nothing: no posting pins a block),
# the allocations of a composite name (one block to build, none to clone,
# view or read), the allocations a warmed federated lookup and rebind make
# (their DNS and HDNS hops cached) and their shrinking reallocs (none: a
# block trimmed in place leaves a sliver the heap grows by), the lines and
# upstream queries fed_resolve's DNS leg leaves in the resolver (RFC 8020
# denial), the heap one compaction of replica_write's store peaks at, and
# the allocations and registrar calls of a strict Jini bind and the
# allocations of a pipelined lookup through the shard pass and of a
# lock-step NetClient call, each against its budget.
echo "==> budgets: what dirserv and an HDNS replica hold per binding, what a name, a federated op, a Jini bind, a pipelined lookup and a lock-step call allocate and shrink, what the resolver caches, what a compaction peaks at, what a strict bind asks the registrar"
cargo test -q --test ldap_footprint a_bound_leaf_stays_inside_its_byte_budget -- --nocapture
cargo test -q --test ldap_footprint the_tree_and_the_index_stay_inside_their_byte_budgets -- --nocapture
cargo test -q --test ldap_footprint rebinding_every_leaf_does_not_grow_the_directory -- --nocapture
cargo test -q --test ldap_footprint unbinding_every_leaf_returns_the_heap_it_took -- --nocapture
cargo test -q --test hdns_footprint -- --nocapture
cargo test -q --test name_footprint a_name_is_one_block_and_its_views_allocate_nothing -- --nocapture
cargo test -q --test value_footprint a_value_round_trip_stays_inside_its_allocation_budget -- --nocapture
cargo test -q --test federation_allocs federated_lookup_and_rebind_stay_inside_their_allocation_budgets -- --nocapture
cargo test -q --test federation_allocs a_warmed_federated_op_shrinks_no_block_in_place -- --nocapture
cargo test -q --test dns_denial federated_lookups_cache_one_line_per_denied_subtree -- --nocapture
cargo test -q --test hdns_write_allocs compaction_peak_heap_stays_near_the_snapshot_length -- --nocapture
cargo test -q --test jini_allocs a_jini_bind_stays_inside_its_allocation_budget -- --nocapture
cargo test -q --test jini_allocs a_strict_bind_makes_the_papers_twelve_registrar_calls -- --nocapture
cargo test -q --test shard_allocs a_pipelined_lookup_stays_inside_its_allocation_budget -- --nocapture
cargo test -q --test net_client_allocs a_lockstep_call_stays_inside_its_allocation_budget -- --nocapture

# Named on its own because it is the cluster's model check: 64 seeded
# schedules of crashes, restarts, cuts, loss, duplication, reordering and
# clock offsets on the production node logic, every write held to its
# outcome. A failure prints the seed and the fault schedule that replay it.
echo "==> cluster simulation: 64 random fault schedules"
cargo test -q -p rndi-cluster --test sim_chaos random_fault_schedules_lose_no_acknowledged_write

# Named on its own because `Wire::{encode, decode, size}` is what
# rndi-cluster puts on TCP: round trips, size() == encode().len(), strict
# rejection and a measured allocation bound on hostile frames. A failure
# prints the case number and seed.
echo "==> codec proptests: groupcast wire frames"
cargo test -q -p groupcast --test wire_codec

# Named on its own because `rndi_cluster::msg` is every payload the
# membership plane sends inside a `Gossip` envelope: round trips, refusal
# of every truncation, and a measured allocation bound on noise. A failure
# prints the case number and seed.
echo "==> codec proptests: cluster membership payloads"
cargo test -q -p rndi-cluster --test gossip_codec gossip_codec_

# Named on its own because it is the durability contract: tests/crash_points.rs
# crashes a replica at every storage call under process kill and power loss,
# and the unit tests hold the proposal codec (`proposal_codec_*`: what the
# op log's records are) to its round trip and hostile input, and a JSON-era
# data dir to quarantine. A failure prints the seed, crash model and boundary that replay it.
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
UNUSED_PUB_CEILING=26
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
# words (`rndi_net_concurrency_limit` is a live metric), and so are the two
# adapters of the method-level provider SPI that `ProviderBackend` replaced,
# groupcast's flow-control layer (simnet's queueing server models Fig. 5),
# the six Environment keys that became constants, with their property
# names, the telemetry plane's ring stripes, watch stripes and TSC clock
# (one locked ring, `Instant`, one watch table replaced them), and HDNS's
# JSON-era snapshot and proposal readers. (CHANGES/ROADMAP/ISSUE are
# history; this script holds the list.)
echo "==> no doc, script or manifest names a deleted artefact"
GONE='fig2_jini_lookup|fig3_jini_rebind|fig4_hdns_lookup|fig5_hdns_rebind|fig6_dns_lookup|fig7_ldap|fig8_federation|ablation_stack|ablation_flowctl|ablation_bindproxy|scale_federation|obs_overhead|spi_overhead'
WALL_CLOCK='net_concurrency|overload_goodput|readpath_scale|shard_scale'
SECOND_SPI='ContextBackend|execute_reified'
FLOW_CONTROL='InboxAccount|inbox_bound|Backpressure'
CONSTANT_KEYS='MAX_FEDERATION_DEPTH|CACHE_MAX_ENTRIES|OBS_RING_CAPACITY|OBS_MAX_SERIES|OBS_FLIGHT_P99_MULT|OBS_FLIGHT_ERR_PCT'
CONSTANT_KEYS+='|rndi\.federation\.max-depth|rndi\.pipeline\.cache\.max-entries|rndi\.obs\.ring-capacity'
CONSTANT_KEYS+='|rndi\.obs\.max-series|rndi\.obs\.flight\.p99-multiple|rndi\.obs\.flight\.err-rate-pct'
STRIPED_PLANE='RING_STRIPES|SEQ_BLOCK|WATCH_STRIPES|now_ns|rdtsc'
JSON_ERA='JsonStore|JsonEntry|JSON_OPEN'
HISTORY=(':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!REVIEW.md' ':!scripts/verify.sh')
if git grep -n -E "bench_figures\\.txt|--bench +($GONE)" -- . "${HISTORY[@]}" ||
   git grep -n -E "$GONE" -- '*.md' '*.toml' '*.yml' 'scripts/' "${HISTORY[@]}" ||
   git grep -n -w -E "$WALL_CLOCK|$SECOND_SPI|$FLOW_CONTROL|$CONSTANT_KEYS|$STRIPED_PLANE|$JSON_ERA" \
     -- . "${HISTORY[@]}"; then
  echo "verify: the files above still name a deleted artefact" >&2
  exit 1
fi
# The transport knows no membership type: rndi-net carries a gossip
# payload as bytes, and the health summary holds no membership figure —
# the plane's vocabulary, codec and gauges are rndi-cluster's (whole words,
# so `members_alive` in an observer signal stays free).
MEMBERSHIP='MemberEntry|MemberState|ViewSummary|GossipRequest|GossipReply'
MEMBERSHIP+='|MembershipStats|membership_stats|members_alive|members_suspect|members_dead'
if git grep -n -w -E "$MEMBERSHIP" -- crates/net crates/obs; then
  echo "verify: the files above name membership vocabulary in rndi-net or rndi-obs" >&2
  exit 1
fi
# Admission (crates/net/src/admit.rs) and the shard pass that drives it
# (crates/net/src/shard.rs) are sans-IO machines that a NetServer thread
# drives: a clock read, a sleep, a thread or a socket in either, or the
# policy, the protocol machine, the admission queue or a backend call back
# in server.rs, is the pass spreading back into the socket code.
echo "==> admission and the shard pass are sans-IO machines; the server only moves bytes"
for f in crates/net/src/admit.rs crates/net/src/shard.rs; do
  if [ ! -f "$f" ]; then
    echo "verify: $f is missing" >&2
    exit 1
  fi
  if grep -n -E 'Instant::now|SystemTime|std::thread|sleep|std::net' "$f"; then
    echo "verify: $f reads a clock, sleeps, or names a thread or socket" >&2
    exit 1
  fi
done
if grep -n -E 'TokenBucket|AIMD_|fn engaged|expired before dispatch|Admission|ServerConn|push_response|\.execute\(' \
     crates/net/src/server.rs; then
  echo "verify: crates/net/src/server.rs holds admission policy, protocol state or a call path" >&2
  exit 1
fi
# An Environment key that nothing reads is a knob that does nothing: every
# `pub const` of rndi_core::env::keys is named by a source file other than
# env.rs.
echo "==> every Environment key has a reader"
env_keys="$(awk '/^pub mod keys/ { inside = 1; next } inside && /^}/ { exit } inside' crates/core/src/env.rs |
  sed -n 's/^ *pub const \([A-Z0-9_]*\): &str.*/\1/p')"
if [ -z "$env_keys" ]; then
  echo "verify: no keys found in crates/core/src/env.rs's keys module" >&2
  exit 1
fi
for key in $env_keys; do
  if ! grep -rlw --include='*.rs' "$key" crates/*/src src | grep -qv '^crates/core/src/env.rs$'; then
    echo "verify: rndi_core::env::keys::$key has no reader in crates/*/src or src/" >&2
    exit 1
  fi
done
# A composite name is one shared block (crates/core/src/name.rs): a list
# of component strings inside `CompositeName` is the copying layout growing
# back.
if awk '/^pub struct CompositeName/ { inside = 1 } inside { print FILENAME ":" FNR ": " $0 }
        inside && /^}/ { exit }' crates/core/src/name.rs | grep -E 'Vec<String>'; then
  echo "verify: CompositeName holds a Vec<String> again (crates/core/src/name.rs)" >&2
  exit 1
fi
# A directory entry is one block — tree key, DN text, attributes — that the
# tree and its postings hold handles to (crates/ldap/src/entry.rs): a
# separate `Arc<str>` key or an `Arc<LdapEntry>` in the tree is the
# four-block layout growing back.
if grep -n -E 'Arc<str>|Arc<LdapEntry>' crates/ldap/src/dit.rs; then
  echo "verify: crates/ldap/src/dit.rs keys entries by a separate Arc<str> or holds Arc<LdapEntry>" >&2
  exit 1
fi
# A value and an attribute set are marshalled by rndi-core's tagged codec
# (`StoredValue::encode`, `Attributes::encode`): JSON in a provider's
# storage path, or in the codec's own encoder, is the text marshalling
# growing back. (JSON-era data is read by the codec's decoders.)
for f in crates/providers/src/{hdns,jini,fs,common}.rs; do
  if grep -n -E 'serde_json::(to_|from_)' "$f"; then
    echo "verify: $f marshals through serde_json" >&2
    exit 1
  fi
done
# The encoder is every `fn encode…` and `fn put_…` in value.rs and attrs.rs
# (`Parts::encode` writes a value, `StoredValue::encode` hands it over) and
# `op::codec::marshal`; a body runs to the `}` at its `fn`'s indentation.
for enc in 'crates/core/src/value.rs:fn (encode|put_)[a-z_]*[(]' \
           'crates/core/src/attrs.rs:fn (encode|put_)[a-z_]*[(]' \
           'crates/core/src/op.rs:fn marshal[(]'; do
  bodies=$(awk -v start="${enc#*:}" '
      !inside && $0 ~ start { inside = 1; match($0, /^ */); end = substr($0, 1, RLENGTH) "}" }
      inside { print FILENAME ":" FNR ": " $0 }
      inside && $0 == end { inside = 0 }' "${enc%%:*}")
  if [ -z "$bodies" ]; then
    echo "verify: no encoder matching '${enc#*:}' in ${enc%%:*}" >&2
    exit 1
  fi
  if grep -E 'serde_json::(to_|from_)' <<<"$bodies"; then
    echo "verify: the encoder in ${enc%%:*} runs serde_json" >&2
    exit 1
  fi
done
# Likewise the pipeline's second stats path: an op is counted once, by
# ObsInterceptor into the rndi-obs registry, and read from there.
STATS_PATH='StatsInterceptor|PipelineStats|rndi_pipeline_|telemetry::(render|reset|register)'
if git grep -n -E "$STATS_PATH" -- '*.rs' '*.md' '*.toml' 'scripts/' "${HISTORY[@]}"; then
  echo "verify: the files above still name the deleted pipeline stats path" >&2
  exit 1
fi

# A provider meets the API one way, `ProviderBackend::execute`: the
# `Context`/`DirContext` methods are written once, in crates/core/src/context.rs,
# and a backend opts in to them with `OpContext`. An `impl ... Context for`
# anywhere else is a second SPI growing back.
echo "==> the client surface is implemented in one place"
if git grep -n -E '^[[:space:]]*impl([<[:space:]].*)?[^A-Za-z0-9_](Dir)?Context for ' \
     -- '*.rs' ':!crates/core/src/context.rs'; then
  echo "verify: the files above implement Context/DirContext outside crates/core/src/context.rs" >&2
  exit 1
fi

# Where a namespace ends is decided in rndi_core::spi::boundary alone: a
# provider answers its probe and nothing else about federation. Only the part
# of each file above its unit tests is searched — tests match on `Continue`.
# crates/core/src/mem.rs is exempt: it is the independent model the
# providers' federation is checked against, so it walks names itself.
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
