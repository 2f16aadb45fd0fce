//! The routing tier: one [`ProviderBackend`] fronting N shard backends.

use std::sync::Arc;
use std::time::Instant;

use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::federation::fan_out;
use rndi_core::name::CompoundSyntax;
use rndi_core::op::{NamingOp, OpKind, OpOutcome, RoutingKey};
use rndi_core::spi::{ProviderBackend, ProviderPipeline};
use rndi_net::NetClient;
use rndi_obs::metrics::{self, names, Counter, Histogram};
use rndi_obs::{SpanOutcome, SpanRecord, TraceCtx};

/// Default scatter fan-out width (overridable via [`keys::SHARD_FANOUT`]).
pub const DEFAULT_FANOUT: u64 = 8;

use crate::map::ShardMap;

/// Routes every [`NamingOp`] to its owner shard by rendezvous hashing
/// over the op's routing key ([`NamingOp::routing_key`] — the normalized
/// first name component).
///
/// `ShardRouter` is itself a [`ProviderBackend`], so
/// [`ProviderPipeline::standard`] composes over it unchanged: callers get
/// cache, retry, marshalling, and obs layers *above* the router, and each
/// shard keeps its own pipeline below (server-side for networked shards).
///
/// Single-key ops go point-to-point to one shard. Whole-namespace ops
/// (`list`/`list_bindings`/`search` at the root, listener removal) scatter
/// across every shard through the bounded fan-out pool shared with
/// federated search and merge deterministically in name order — results
/// are independent of fan-out width and worker scheduling. A `rename`
/// whose source and destination hash to different shards becomes a
/// non-atomic lookup → bind(dst) → unbind(src) move: the destination bind
/// is atomic, so a losing race surfaces as `AlreadyBound` with the source
/// entry intact.
pub struct ShardRouter {
    map: ShardMap,
    backends: Vec<Arc<dyn ProviderBackend>>,
    fanout: usize,
    label: Arc<str>,
    /// Pre-resolved per-shard instrument handles (registry lookups are
    /// too expensive for the per-op path), indexed like `backends`.
    point_routed: Vec<Arc<Counter>>,
    scatter_routed: Vec<Arc<Counter>>,
    fanout_width: Arc<Histogram>,
    imbalance: Arc<Histogram>,
    /// Scatters merged without every shard's answer because one or more
    /// legs were shed (`Overloaded`). The registry counter aggregates
    /// across routers sharing a label; the atomic is this router's own.
    partial_overloaded: Arc<Counter>,
    partials: std::sync::atomic::AtomicU64,
}

impl ShardRouter {
    /// A router over explicit backends, index-aligned with `map.shards()`
    /// — in-process shards in tests and benches, [`NetClient`]s in
    /// production ([`ShardRouter::connect`] builds those).
    pub fn new(
        map: ShardMap,
        backends: Vec<Arc<dyn ProviderBackend>>,
        env: &Environment,
    ) -> Result<Self> {
        if backends.len() != map.len() {
            return Err(NamingError::ConfigurationError {
                detail: format!(
                    "shard map names {} shards but {} backends were supplied",
                    map.len(),
                    backends.len()
                ),
            });
        }
        let label = format!("shard-router({})", map.len());
        let route_counter = |shard: &str, mode: &str| {
            metrics::counter(
                names::SHARD_ROUTED,
                &[("router", &label), ("shard", shard), ("mode", mode)],
            )
        };
        Ok(ShardRouter {
            fanout: env.get_u64(keys::SHARD_FANOUT, DEFAULT_FANOUT).max(1) as usize,
            point_routed: map
                .shards()
                .iter()
                .map(|s| route_counter(s.id(), "point"))
                .collect(),
            scatter_routed: map
                .shards()
                .iter()
                .map(|s| route_counter(s.id(), "scatter"))
                .collect(),
            fanout_width: metrics::histogram(names::SHARD_FANOUT, &[("router", &label)]),
            imbalance: metrics::histogram(names::SHARD_IMBALANCE, &[("router", &label)]),
            partial_overloaded: metrics::counter(
                names::SHARD_PARTIAL,
                &[("router", &label), ("reason", "overloaded")],
            ),
            partials: std::sync::atomic::AtomicU64::new(0),
            map,
            backends,
            label: label.into(),
        })
    }

    /// The networked composition: one pooled v2 [`NetClient`] per shard
    /// endpoint, the router over them, and the standard interceptor stack
    /// over the router — cache hits never cross the wire, retries re-route
    /// through rendezvous hashing, and obs roots every remote trace.
    pub fn connect(map: ShardMap, env: &Environment) -> Result<Arc<ProviderPipeline<ShardRouter>>> {
        let backends = map
            .shards()
            .iter()
            .map(|s| {
                NetClient::new(s.endpoint(), env).map(|c| Arc::new(c) as Arc<dyn ProviderBackend>)
            })
            .collect::<Result<Vec<_>>>()?;
        let router = Arc::new(ShardRouter::new(map, backends, env)?);
        Ok(ProviderPipeline::standard(router, env))
    }

    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The backend serving shard `index` (tests reach through to inspect
    /// per-shard state).
    pub fn backend(&self, index: usize) -> &Arc<dyn ProviderBackend> {
        &self.backends[index]
    }

    /// How many scatters merged without every shard's slice because at
    /// least one leg was shed under overload. Mirrors the
    /// [`names::SHARD_PARTIAL`] counter for in-process callers.
    pub fn partial_scatters(&self) -> u64 {
        self.partials.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Send `op` to one shard, re-annotated with the router's span
    /// context so the shard's own spans (client → server for networked
    /// shards) nest directly under the router span.
    fn leg(&self, index: usize, op: &NamingOp, parent: &TraceCtx) -> Result<OpOutcome> {
        let mut leg = op.clone();
        leg.set_trace_ctx(parent);
        self.backends[index].execute(&leg)
    }

    fn route(&self, op: &NamingOp, span_ctx: &TraceCtx) -> Result<OpOutcome> {
        if op.kind == OpKind::Rename {
            return self.rename(op, span_ctx);
        }
        match op.routing_key() {
            RoutingKey::Shard(key) => {
                let owner = self.map.owner_index(key);
                self.point_routed[owner].inc();
                self.leg(owner, op, span_ctx)
            }
            RoutingKey::Scatter => self.scatter(op, span_ctx),
        }
    }

    fn rename(&self, op: &NamingOp, span_ctx: &TraceCtx) -> Result<OpOutcome> {
        let RoutingKey::Shard(src_key) = op.routing_key() else {
            return Err(NamingError::invalid_name(
                op.name.to_string(),
                "rename source must be a non-empty name",
            ));
        };
        let new_name = op.new_name()?.clone();
        let dst_key = match NamingOp::lookup(new_name.clone()).routing_key() {
            RoutingKey::Shard(k) => k.to_string(),
            RoutingKey::Scatter => {
                return Err(NamingError::invalid_name(
                    new_name.to_string(),
                    "rename destination must be a non-empty name",
                ))
            }
        };
        let src = self.map.owner_index(src_key);
        let dst = self.map.owner_index(&dst_key);
        if src == dst {
            self.point_routed[src].inc();
            return self.leg(src, op, span_ctx);
        }
        // Cross-shard move. Not atomic across shards: a concurrent reader
        // can briefly see the entry under both names. The destination bind
        // is atomic, so a lost race fails with `AlreadyBound` and leaves
        // the source untouched; only the final unbind removes it.
        self.point_routed[src].inc();
        self.point_routed[dst].inc();
        let mut lookup = NamingOp::lookup(op.name.clone());
        lookup.meta = op.meta.clone();
        let value = self
            .leg(src, &lookup, span_ctx)?
            .into_value(OpKind::Lookup)?;
        let mut bind = NamingOp::bind(new_name, value);
        bind.meta = op.meta.clone();
        self.leg(dst, &bind, span_ctx)?.into_done(OpKind::Bind)?;
        let mut unbind = NamingOp::unbind(op.name.clone());
        unbind.meta = op.meta.clone();
        self.leg(src, &unbind, span_ctx)?
            .into_done(OpKind::Unbind)?;
        Ok(OpOutcome::Done)
    }

    /// Fan `op` out to every shard and merge. Merge order is name order —
    /// each name lives on exactly one shard, so sorting the union is a
    /// total order independent of fan-out width and scheduling (the same
    /// determinism contract federated search keeps for its mounts).
    /// Unreachable shards are skipped best-effort unless *every* shard
    /// fails, mirroring federation's dead-mount policy. A leg shed by an
    /// overloaded shard degrades the same way — the merge proceeds
    /// without that shard's slice and the partial is flagged on
    /// [`names::SHARD_PARTIAL`] — but when *all* legs fail and any was
    /// shed, the scatter propagates `Overloaded` (with the largest
    /// `retry_after_ms` hint seen) so callers back off instead of
    /// treating a congested cluster as broken.
    fn scatter(&self, op: &NamingOp, span_ctx: &TraceCtx) -> Result<OpOutcome> {
        match op.kind {
            OpKind::List | OpKind::ListBindings | OpKind::Search | OpKind::RemoveListener => {}
            _ => {
                return Err(NamingError::invalid_name(
                    op.name.to_string(),
                    format!(
                        "{} needs a non-empty name to route to a shard",
                        op.kind.label()
                    ),
                ))
            }
        }
        let n = self.backends.len();
        self.fanout_width.record(n as u64);
        for c in &self.scatter_routed {
            c.inc();
        }
        let legs = fan_out(n, self.fanout, |i| self.leg(i, op, span_ctx));

        if op.kind == OpKind::RemoveListener {
            // Only the owning shard knows the handle; broadcast and treat
            // any success as success.
            let mut first_err = None;
            for leg in legs {
                match leg {
                    Ok(_) => return Ok(OpOutcome::Done),
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
            return Err(first_err.unwrap_or_else(|| NamingError::service("no shard to ask")));
        }

        let mut oks = Vec::with_capacity(n);
        let mut first_err = None;
        let mut shed_legs = 0usize;
        let mut max_retry_after = 0u64;
        for leg in legs {
            match leg {
                Ok(outcome) => oks.push(outcome),
                Err(NamingError::Overloaded { retry_after_ms }) => {
                    shed_legs += 1;
                    max_retry_after = max_retry_after.max(retry_after_ms);
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if oks.is_empty() {
            // Total failure: if any shard shed us, the cluster is
            // congested rather than broken — surface the transient error
            // with the most pessimistic back-off hint across shards.
            if shed_legs > 0 {
                return Err(NamingError::Overloaded {
                    retry_after_ms: max_retry_after,
                });
            }
            return Err(first_err.unwrap_or_else(|| NamingError::service("no shard to ask")));
        }
        if shed_legs > 0 {
            self.partial_overloaded.inc();
            self.partials
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }

        let sizes: Vec<usize>;
        let merged = match op.kind {
            OpKind::List => {
                let per_shard = oks
                    .into_iter()
                    .map(|o| o.into_names(OpKind::List))
                    .collect::<Result<Vec<_>>>()?;
                sizes = per_shard.iter().map(Vec::len).collect();
                let mut all: Vec<_> = per_shard.into_iter().flatten().collect();
                all.sort_by(|a, b| a.name.cmp(&b.name));
                OpOutcome::Names(all)
            }
            OpKind::ListBindings => {
                let per_shard = oks
                    .into_iter()
                    .map(|o| o.into_bindings(OpKind::ListBindings))
                    .collect::<Result<Vec<_>>>()?;
                sizes = per_shard.iter().map(Vec::len).collect();
                let mut all: Vec<_> = per_shard.into_iter().flatten().collect();
                all.sort_by(|a, b| a.name.cmp(&b.name));
                OpOutcome::Bindings(all)
            }
            OpKind::Search => {
                let per_shard = oks
                    .into_iter()
                    .map(|o| o.into_found(OpKind::Search))
                    .collect::<Result<Vec<_>>>()?;
                sizes = per_shard.iter().map(Vec::len).collect();
                let mut all: Vec<_> = per_shard.into_iter().flatten().collect();
                all.sort_by(|a, b| a.name.cmp(&b.name));
                // Shards each applied the count limit locally; the merged
                // set re-applies it so the cap holds globally — and, being
                // applied after the deterministic sort, it keeps the
                // fanout-independence guarantee.
                if let rndi_core::op::OpPayload::Query { controls, .. } = &op.payload {
                    if controls.count_limit > 0 && all.len() > controls.count_limit {
                        all.truncate(controls.count_limit);
                    }
                }
                OpOutcome::Found(all)
            }
            _ => unreachable!("filtered above"),
        };
        let total: usize = sizes.iter().sum();
        if total > 0 {
            let max = sizes.iter().copied().max().unwrap_or(0) as f64;
            let mean = total as f64 / sizes.len() as f64;
            self.imbalance.record((100.0 * max / mean).round() as u64);
        }
        Ok(merged)
    }
}

impl ProviderBackend for ShardRouter {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        // One router span per op, child of whatever layer called us (the
        // standard pipeline's obs root, usually); per-shard legs hang
        // their client/server spans beneath it.
        let span_ctx = match op.trace_ctx() {
            Some(parent) => parent.child(),
            None => TraceCtx::root(),
        };
        let start = Instant::now();
        let result = self.route(op, &span_ctx);
        let outcome = match &result {
            Ok(_) => SpanOutcome::Ok,
            Err(e) if e.is_continue() => SpanOutcome::Continue,
            Err(_) => SpanOutcome::Err,
        };
        rndi_obs::trace::record(SpanRecord::new(
            &span_ctx,
            "router",
            self.label.to_string(),
            op.kind.label(),
            outcome,
            start.elapsed(),
        ));
        result
    }

    fn provider_id(&self) -> String {
        self.label.to_string()
    }

    fn compound_syntax(&self) -> CompoundSyntax {
        CompoundSyntax::path()
    }
}
