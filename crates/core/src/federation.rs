//! Federation: resolving composite names across naming-system boundaries.
//!
//! A provider resolves the part of a name that belongs to its own naming
//! system; when it reaches a binding that is a live foreign context or a
//! URL reference, it returns [`NamingError::Continue`]
//! ([`crate::spi::boundary`] decides when). The
//! [`drive_op`] loop — JNDI's `NamingManager.getContinuationContext` — turns
//! the resolved object into the next context (instantiating providers by
//! URL scheme where needed) and re-issues the operation with the remaining
//! name, until the operation completes or the hop limit trips.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rndi_obs::metrics::names;
use rndi_obs::{SpanOutcome, SpanRecord, TraceCtx};

use crate::context::{DirContext, SearchControls, SearchItem, SearchScope};
use crate::env::{keys, Environment};
use crate::error::{NamingError, Result};
use crate::filter::Filter;
use crate::name::CompositeName;
use crate::op::{self, NamingOp, OpKind, OpOutcome, OpPayload};
use crate::spi::{OpContext, ProviderBackend, ProviderRegistry};
use crate::url::RndiUrl;
use crate::value::BoundValue;

/// Default maximum federation hops (overridable via
/// [`keys::MAX_FEDERATION_DEPTH`]).
const DEFAULT_MAX_DEPTH: u64 = 16;

/// Default worker-pool width for federated subtree search fan-out
/// (overridable via [`keys::FEDERATION_FANOUT`]).
pub const DEFAULT_FANOUT: u64 = 8;

/// Run `run(i)` for each `i in 0..n` across a bounded pool of `workers`
/// scoped threads, returning the results in index order regardless of
/// which worker ran which item.
///
/// This is the fan-out machinery federated subtree search uses to visit
/// mounts concurrently, factored out so other scatter layers (the shard
/// router, most notably) share one implementation and one determinism
/// guarantee: results come back positionally, so any merge that iterates
/// the returned `Vec` is independent of worker count and scheduling.
/// `workers` is clamped to `1..=n`; `workers == 1` degenerates to a
/// sequential loop on the caller's thread (no spawns).
pub fn fan_out<T, F>(n: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return (0..n).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock() = Some(run(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker filled every slot"))
        .collect()
}

/// Turn a resolved boundary object into the continuation context plus the
/// name prefix it contributes (URL references contribute their path).
fn continuation_context(
    resolved: BoundValue,
    registry: &ProviderRegistry,
    env: &Environment,
) -> Result<(Arc<dyn DirContext>, CompositeName)> {
    match resolved {
        BoundValue::Context(ctx) => Ok((ctx, CompositeName::empty())),
        BoundValue::Reference(r) => {
            let url_str = r.url_addr().ok_or_else(|| NamingError::NotAContext {
                name: format!("reference {:?} has no URL address", r.class_name),
            })?;
            let url = RndiUrl::parse(url_str)?;
            let ctx = registry.create_context(&url, env)?;
            Ok((ctx, url.path))
        }
        other => Err(NamingError::NotAContext {
            name: format!("cannot continue through a {} value", other.class_name()),
        }),
    }
}

/// Run a reified [`NamingOp`] against `ctx`, following federation
/// continuations until the operation completes. Each hop re-targets the
/// same op — moved, not copied, so a write's payload crosses every naming
/// system without being cloned — at the remaining name (a `rename`'s
/// target with it), and interceptor annotations (retry attempt, trace tags)
/// survive across naming-system boundaries.
pub fn drive_op(
    ctx: Arc<dyn DirContext>,
    mut op: NamingOp,
    registry: &ProviderRegistry,
    env: &Environment,
) -> Result<OpOutcome> {
    let max_depth = env.get_u64(keys::MAX_FEDERATION_DEPTH, DEFAULT_MAX_DEPTH) as usize;
    // The driver is the outermost instrumented layer for reified ops: when
    // the caller didn't trace the op, mint the trace root here so every
    // hop, pipeline layer, and remote server below joins one trace. An op
    // arriving already traced belongs to the annotating layer's span —
    // don't record a second root for it.
    let root = match op.trace_ctx() {
        Some(_) => None,
        None => {
            let root = TraceCtx::root();
            op.set_trace_ctx(&root);
            Some((root, ctx.provider_id(), Instant::now()))
        }
    };
    let kind = op.kind;
    let result = drive_op_loop(ctx, op, registry, env, max_depth);
    if let Some((span_ctx, provider, start)) = root {
        let outcome = match &result {
            Ok(_) => SpanOutcome::Ok,
            Err(e) if e.is_continue() => SpanOutcome::Continue,
            Err(_) => SpanOutcome::Err,
        };
        rndi_obs::trace::record(SpanRecord::new(
            &span_ctx,
            "federation",
            provider.as_str(),
            kind.label(),
            outcome,
            start.elapsed(),
        ));
    }
    result
}

fn drive_op_loop(
    mut ctx: Arc<dyn DirContext>,
    mut op: NamingOp,
    registry: &ProviderRegistry,
    env: &Environment,
    max_depth: usize,
) -> Result<OpOutcome> {
    for _ in 0..=max_depth {
        match op::dispatch(ctx.as_ref(), &op) {
            Err(NamingError::Continue {
                resolved,
                remaining,
            }) => {
                let (next, prefix) = continuation_context(resolved, registry, env)?;
                if let OpPayload::NewName(target) = &mut op.payload {
                    *target = rebased(&op.name, &remaining, target, &prefix)?;
                }
                ctx = next;
                op.name = prefix.join(&remaining);
            }
            other => return other,
        }
    }
    Err(NamingError::FederationDepthExceeded { depth: max_depth })
}

/// A rename's target as the next naming system spells it: the hop consumed
/// the leading components of `old` that `remaining` no longer has, and the
/// target moves with it only if it starts with those same components and
/// goes on beneath them — a binding cannot be renamed out of the naming
/// system that holds it.
fn rebased(
    old: &CompositeName,
    remaining: &CompositeName,
    target: &CompositeName,
    prefix: &CompositeName,
) -> Result<CompositeName> {
    match old.len().checked_sub(remaining.len()) {
        Some(consumed)
            if target.len() > consumed
                && target.components()[..consumed] == old.components()[..consumed] =>
        {
            Ok(prefix.join(&target.suffix(consumed)))
        }
        _ => Err(NamingError::unsupported(format!(
            "rename across naming systems ({old} to {target})"
        ))),
    }
}

/// A `DirContext` facade over a federated namespace: every operation is
/// reified as a [`NamingOp`] and run through the continuation [`drive_op`]
/// loop, so the aggregate "behaves as a single, possibly hierarchical,
/// aggregate naming service" (§6) — and can itself be passed around, bound,
/// or nested wherever a context is expected.
pub struct FederatedContext {
    base: Arc<dyn DirContext>,
    registry: Arc<ProviderRegistry>,
    env: Environment,
}

impl FederatedContext {
    pub fn new(
        base: Arc<dyn DirContext>,
        registry: Arc<ProviderRegistry>,
        env: Environment,
    ) -> Arc<Self> {
        Arc::new(FederatedContext {
            base,
            registry,
            env,
        })
    }

    /// Run a reified op through the federation loop.
    pub fn run_op(&self, op: NamingOp) -> crate::error::Result<OpOutcome> {
        drive_op(self.base.clone(), op, &self.registry, &self.env)
    }

    /// Subtree search across mounted naming systems.
    ///
    /// The base system is searched first (through the normal continuation
    /// loop), then every federation link bound directly under `name` is
    /// searched concurrently by a bounded worker pool of
    /// [`keys::FEDERATION_FANOUT`] threads, recursing into nested mounts
    /// up to [`keys::MAX_FEDERATION_DEPTH`] levels. The merge order is
    /// deterministic regardless of worker scheduling: base hits first,
    /// then each mount's hits in mount-name order, each hit renamed to
    /// `"{mount}/{hit}"`. Mounts that cannot be resolved or searched are
    /// skipped — aggregation over heterogeneous member registries is
    /// best-effort, one unreachable system must not fail the federation.
    fn search_federated(
        &self,
        name: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
        depth: usize,
        parent: Option<&TraceCtx>,
    ) -> Result<Vec<SearchItem>> {
        // One span per (sub)federation searched: the root span of the whole
        // aggregate search at depth 0, a child of the owning mount's span
        // when recursing.
        let span_ctx = match parent {
            Some(p) => p.child(),
            None => TraceCtx::root(),
        };
        let start = Instant::now();
        let result = self.search_federated_inner(name, filter, controls, depth, &span_ctx);
        let outcome = match &result {
            Ok(_) => SpanOutcome::Ok,
            Err(e) if e.is_continue() => SpanOutcome::Continue,
            Err(_) => SpanOutcome::Err,
        };
        rndi_obs::trace::record(SpanRecord::new(
            &span_ctx,
            "federation",
            crate::context::Context::provider_id(self),
            "search",
            outcome,
            start.elapsed(),
        ));
        result
    }

    fn search_federated_inner(
        &self,
        name: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
        depth: usize,
        span_ctx: &TraceCtx,
    ) -> Result<Vec<SearchItem>> {
        rndi_obs::metrics::histogram(names::FED_DEPTH, &[]).record(depth as u64);
        let mut base_search = NamingOp::search(name.clone(), filter.clone(), controls.clone());
        base_search.set_trace_ctx(span_ctx);
        let mut out = self.run_op(base_search)?.into_found(OpKind::Search)?;
        let max_depth =
            self.env
                .get_u64(keys::MAX_FEDERATION_DEPTH, DEFAULT_MAX_DEPTH) as usize;
        if controls.scope != SearchScope::Subtree || depth >= max_depth {
            return Ok(Self::truncate(out, controls.count_limit));
        }
        // Federation links bound directly under the base, in name order.
        let mut list_mounts = NamingOp::list_bindings(name.clone());
        list_mounts.set_trace_ctx(span_ctx);
        let mut mounts: Vec<(String, BoundValue)> = match self
            .run_op(list_mounts)
            .and_then(|o| o.into_bindings(OpKind::ListBindings))
        {
            Ok(bindings) => bindings
                .into_iter()
                .filter(|b| b.value.is_federation_link())
                .map(|b| (b.name, b.value))
                .collect(),
            // Base isn't enumerable (flat service, foreign leaf): nothing
            // to fan out over.
            Err(_) => Vec::new(),
        };
        if mounts.is_empty() {
            return Ok(Self::truncate(out, controls.count_limit));
        }
        mounts.sort_by(|a, b| a.0.cmp(&b.0));
        rndi_obs::metrics::histogram(names::FED_FANOUT, &[]).record(mounts.len() as u64);

        let fanout = self
            .env
            .get_u64(keys::FEDERATION_FANOUT, DEFAULT_FANOUT)
            .max(1) as usize;
        let per_mount = fan_out(mounts.len(), fanout, |i| {
            let (mount, link) = &mounts[i];
            // One child span per mount, recorded by the worker that
            // searched it; parent links keep the tree intact no matter
            // which thread ran which mount.
            let mount_ctx = span_ctx.child();
            let mount_start = Instant::now();
            let searched = self.search_mount(link.clone(), filter, controls, depth + 1, &mount_ctx);
            rndi_obs::trace::record(SpanRecord::new(
                &mount_ctx,
                "federation",
                mount.as_str(),
                "search",
                if searched.is_ok() {
                    SpanOutcome::Ok
                } else {
                    SpanOutcome::Err
                },
                mount_start.elapsed(),
            ));
            searched.unwrap_or_default()
        });
        for ((mount, _), hits) in mounts.iter().zip(per_mount) {
            out.extend(hits.into_iter().map(|mut hit| {
                hit.name = if hit.name.is_empty() {
                    mount.clone()
                } else {
                    format!("{mount}/{}", hit.name)
                };
                hit
            }));
        }
        Ok(Self::truncate(out, controls.count_limit))
    }

    /// Resolve one federation link and run the subtree search inside it
    /// (itself federated, so nested mounts keep aggregating).
    fn search_mount(
        &self,
        link: BoundValue,
        filter: &Filter,
        controls: &SearchControls,
        depth: usize,
        parent: &TraceCtx,
    ) -> Result<Vec<SearchItem>> {
        let (ctx, prefix) = continuation_context(link, &self.registry, &self.env)?;
        let child = FederatedContext::new(ctx, self.registry.clone(), self.env.clone());
        child.search_federated(&prefix, filter, controls, depth, Some(parent))
    }

    fn truncate(mut hits: Vec<SearchItem>, limit: usize) -> Vec<SearchItem> {
        if limit > 0 && hits.len() > limit {
            hits.truncate(limit);
        }
        hits
    }
}

/// The facade runs ops, so it gets its `Context`/`DirContext` surface from
/// the one bridge ([`OpContext`]) — and can be served by anything that hosts
/// a backend. Searches take the federated fan-out path, everything else the
/// continuation loop, which re-targets the op per hop and so needs its own.
impl ProviderBackend for FederatedContext {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        if op.kind != OpKind::Search {
            return self.run_op(op.clone());
        }
        let (filter, controls) = op.query()?;
        self.search_federated(&op.name, filter, controls, 0, op.trace_ctx().as_ref())
            .map(OpOutcome::Found)
    }

    fn provider_id(&self) -> String {
        format!("federated({})", self.base.provider_id())
    }
}

impl OpContext for FederatedContext {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Context, ContextExt};
    use crate::mem::MemContext;
    use crate::spi::UrlContextFactory;
    use crate::value::Reference;
    use parking_lot::Mutex;
    use std::collections::HashMap;

    /// A factory that serves pre-built MemContexts per host, so tests can
    /// build multi-system federations without real backends.
    struct MemFactory {
        scheme: &'static str,
        hosts: Mutex<HashMap<String, MemContext>>,
    }

    impl MemFactory {
        fn with_host(scheme: &'static str, host: &str, ctx: MemContext) -> Arc<Self> {
            let f = MemFactory {
                scheme,
                hosts: Mutex::new(HashMap::new()),
            };
            f.hosts.lock().insert(host.to_string(), ctx);
            Arc::new(f)
        }
    }

    fn lookup_through(
        ctx: Arc<dyn DirContext>,
        name: &str,
        registry: &ProviderRegistry,
        env: &Environment,
    ) -> Result<BoundValue> {
        drive_op(ctx, NamingOp::lookup(name.into()), registry, env)?.into_value(OpKind::Lookup)
    }

    impl UrlContextFactory for MemFactory {
        fn scheme(&self) -> &str {
            self.scheme
        }
        fn create(&self, url: &RndiUrl, _env: &Environment) -> Result<Arc<dyn DirContext>> {
            self.hosts
                .lock()
                .get(&url.host)
                .cloned()
                .map(|c| Arc::new(c) as Arc<dyn DirContext>)
                .ok_or_else(|| NamingError::service(format!("unknown host {}", url.host)))
        }
    }

    #[test]
    fn two_hop_resolution_via_url_reference() {
        // root --(ref "hdns://host2/sub")--> hdns host2 {sub/{obj}}
        let root = MemContext::new();
        let hdns = MemContext::new();
        hdns.create_subcontext(&"sub".into()).unwrap();
        hdns.bind_str("sub/obj", "found-it").unwrap();

        root.bind(
            &"link".into(),
            BoundValue::Reference(Reference::url("hdns://host2/sub")),
        )
        .unwrap();

        let registry = ProviderRegistry::new();
        registry.register(MemFactory::with_host("hdns", "host2", hdns));
        let env = Environment::new();

        let got = lookup_through(Arc::new(root), "link/obj", &registry, &env).unwrap();
        assert_eq!(got.as_str(), Some("found-it"));
    }

    #[test]
    fn live_context_binding_continues_without_registry() {
        let root = MemContext::new();
        let foreign = MemContext::new();
        foreign.bind_str("x", "v").unwrap();
        root.bind(&"mnt".into(), BoundValue::Context(Arc::new(foreign)))
            .unwrap();

        let registry = ProviderRegistry::new();
        let env = Environment::new();
        let got = lookup_through(Arc::new(root), "mnt/x", &registry, &env).unwrap();
        assert_eq!(got.as_str(), Some("v"));
    }

    #[test]
    fn cycle_guard_trips() {
        // a -> ref(loop://h) where loop://h resolves to a context that
        // itself mounts loop://h again... simplest: self-referential mount.
        let a = MemContext::new();
        a.bind(
            &"self".into(),
            BoundValue::Reference(Reference::url("loop://h/self")),
        )
        .unwrap();
        let registry = ProviderRegistry::new();
        registry.register(MemFactory::with_host("loop", "h", a.clone()));
        let env = Environment::new().with(keys::MAX_FEDERATION_DEPTH, "4");

        let err = lookup_through(Arc::new(a), "self/self/x", &registry, &env).unwrap_err();
        assert!(matches!(err, NamingError::FederationDepthExceeded { .. }));
    }

    #[test]
    fn missing_provider_is_reported() {
        let root = MemContext::new();
        root.bind(
            &"link".into(),
            BoundValue::Reference(Reference::url("nosuch://h")),
        )
        .unwrap();
        let registry = ProviderRegistry::new();
        let env = Environment::new();
        let err = lookup_through(Arc::new(root), "link/x", &registry, &env).unwrap_err();
        assert!(matches!(err, NamingError::NoProvider { .. }));
    }

    #[test]
    fn write_operations_follow_federation_too() {
        let root = MemContext::new();
        let far = MemContext::new();
        root.bind(&"mnt".into(), BoundValue::Context(Arc::new(far.clone())))
            .unwrap();

        let registry = ProviderRegistry::new();
        let env = Environment::new();
        drive_op(
            Arc::new(root),
            NamingOp::bind("mnt/new".into(), BoundValue::str("written")),
            &registry,
            &env,
        )
        .unwrap();
        assert_eq!(far.lookup_str("new").unwrap().as_str(), Some("written"));
    }

    #[test]
    fn federated_context_is_a_first_class_context() {
        // root mounts a foreign mem context; the FederatedContext hides
        // the boundary from ordinary Context users.
        let root = MemContext::new();
        let far = MemContext::new();
        root.bind(&"mnt".into(), BoundValue::Context(Arc::new(far.clone())))
            .unwrap();
        let fed = FederatedContext::new(
            Arc::new(root),
            Arc::new(ProviderRegistry::new()),
            Environment::new(),
        );
        // Plain trait calls traverse the mount transparently.
        fed.bind_str("mnt/deep", "v").unwrap();
        assert_eq!(fed.lookup_str("mnt/deep").unwrap().as_str(), Some("v"));
        assert_eq!(far.lookup_str("deep").unwrap().as_str(), Some("v"));
        fed.unbind_str("mnt/deep").unwrap();
        assert!(far.lookup_str("deep").is_err());

        // And the facade is itself bindable as a live context.
        let outer = MemContext::new();
        outer
            .bind(&"world".into(), BoundValue::Context(fed))
            .unwrap();
        let got = drive_op(
            Arc::new(outer),
            NamingOp::list("world/mnt".into()),
            &ProviderRegistry::new(),
            &Environment::new(),
        )
        .and_then(|o| o.into_names(OpKind::List))
        .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn federated_context_search_spans_mounts() {
        use crate::attrs::Attributes;
        use crate::context::SearchControls;
        use crate::filter::Filter;
        let root = MemContext::new();
        let far = MemContext::new();
        far.bind_with_attrs(
            &"hit".into(),
            BoundValue::Null,
            Attributes::new().with("k", "v"),
        )
        .unwrap();
        root.bind(&"mnt".into(), BoundValue::Context(Arc::new(far)))
            .unwrap();
        let fed = FederatedContext::new(
            Arc::new(root),
            Arc::new(ProviderRegistry::new()),
            Environment::new(),
        );
        let hits = fed
            .search(
                &"mnt".into(),
                &Filter::parse("(k=v)").unwrap(),
                &SearchControls::default(),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn subtree_search_fans_out_across_mounts_in_name_order() {
        use crate::attrs::Attributes;
        use crate::context::{SearchControls, SearchScope};
        use crate::filter::Filter;

        // root { local(k=v), mount-b -> far_b{hit-b}, mount-a -> far_a{hit-a, nested -> deep{hit-deep}} }
        let root = MemContext::new();
        root.bind_with_attrs(
            &"local".into(),
            BoundValue::Null,
            Attributes::new().with("k", "v"),
        )
        .unwrap();
        let deep = MemContext::new();
        deep.bind_with_attrs(
            &"hit-deep".into(),
            BoundValue::Null,
            Attributes::new().with("k", "v"),
        )
        .unwrap();
        let far_a = MemContext::new();
        far_a
            .bind_with_attrs(
                &"hit-a".into(),
                BoundValue::Null,
                Attributes::new().with("k", "v"),
            )
            .unwrap();
        far_a
            .bind(&"nested".into(), BoundValue::Context(Arc::new(deep)))
            .unwrap();
        let far_b = MemContext::new();
        far_b
            .bind_with_attrs(
                &"hit-b".into(),
                BoundValue::Null,
                Attributes::new().with("k", "v"),
            )
            .unwrap();
        root.bind(&"mount-b".into(), BoundValue::Context(Arc::new(far_b)))
            .unwrap();
        root.bind(&"mount-a".into(), BoundValue::Context(Arc::new(far_a)))
            .unwrap();

        let controls = SearchControls {
            scope: SearchScope::Subtree,
            ..Default::default()
        };
        let filter = Filter::parse("(k=v)").unwrap();
        for fanout in ["1", "8"] {
            let fed = FederatedContext::new(
                Arc::new(root.clone()),
                Arc::new(ProviderRegistry::new()),
                Environment::new().with(keys::FEDERATION_FANOUT, fanout),
            );
            let names: Vec<String> = crate::context::DirContext::search(
                fed.as_ref(),
                &CompositeName::empty(),
                &filter,
                &controls,
            )
            .unwrap()
            .into_iter()
            .map(|h| h.name)
            .collect();
            // Base hits first, then mounts in name order (a before b),
            // nested mounts recursed — identical for any pool width.
            assert_eq!(
                names,
                vec![
                    "local",
                    "mount-a/hit-a",
                    "mount-a/nested/hit-deep",
                    "mount-b/hit-b"
                ],
                "fanout={fanout}"
            );
        }
    }

    #[test]
    fn federated_search_emits_one_linked_trace() {
        use crate::attrs::Attributes;
        use crate::context::{SearchControls, SearchScope};
        use crate::filter::Filter;

        // Mount names unique to this test, so ring lookups are immune to
        // spans emitted by concurrently running tests.
        let root = MemContext::new();
        let deep = MemContext::new();
        deep.bind_with_attrs(
            &"hit-deep".into(),
            BoundValue::Null,
            Attributes::new().with("k", "v"),
        )
        .unwrap();
        let far_a = MemContext::new();
        far_a
            .bind_with_attrs(
                &"hit-a".into(),
                BoundValue::Null,
                Attributes::new().with("k", "v"),
            )
            .unwrap();
        far_a
            .bind(&"obs-nested".into(), BoundValue::Context(Arc::new(deep)))
            .unwrap();
        let far_b = MemContext::new();
        far_b
            .bind_with_attrs(
                &"hit-b".into(),
                BoundValue::Null,
                Attributes::new().with("k", "v"),
            )
            .unwrap();
        root.bind(&"obs-mount-a".into(), BoundValue::Context(Arc::new(far_a)))
            .unwrap();
        root.bind(&"obs-mount-b".into(), BoundValue::Context(Arc::new(far_b)))
            .unwrap();

        let fed = FederatedContext::new(
            Arc::new(root),
            Arc::new(ProviderRegistry::new()),
            Environment::new(),
        );
        let controls = SearchControls {
            scope: SearchScope::Subtree,
            ..Default::default()
        };
        let filter = Filter::parse("(k=v)").unwrap();
        let hits = crate::context::DirContext::search(
            fed.as_ref(),
            &CompositeName::empty(),
            &filter,
            &controls,
        )
        .unwrap();
        assert!(hits.len() >= 3, "expected all three hits, got {hits:?}");

        let ring = rndi_obs::trace::ring();
        let anchor = ring
            .snapshot()
            .into_iter()
            .rev()
            .find(|s| &*s.provider == "obs-mount-a")
            .expect("per-mount span recorded");
        let trace = ring.trace(anchor.trace_id);
        let roots: Vec<_> = trace.iter().filter(|s| s.parent_span == 0).collect();
        assert_eq!(roots.len(), 1, "one root span per federated search");
        let root_span = roots[0];
        assert_eq!(root_span.layer, "federation");
        assert_eq!(root_span.op, "search");
        assert_eq!(root_span.depth, 0);
        // One child span per mount, all linked to the same root.
        for mount in ["obs-mount-a", "obs-mount-b"] {
            let m = trace
                .iter()
                .find(|s| &*s.provider == mount)
                .unwrap_or_else(|| panic!("child span for {mount}"));
            assert_eq!(m.parent_span, root_span.span_id);
            assert_eq!(m.depth, 1);
        }
        // The nested mount inside mount-a joins the same trace, deeper.
        let nested = trace
            .iter()
            .find(|s| &*s.provider == "obs-nested")
            .expect("nested mount span");
        assert!(nested.depth > 1, "nested span below the mount span");
    }

    #[test]
    fn subtree_search_skips_unresolvable_mounts() {
        use crate::context::{SearchControls, SearchScope};
        use crate::filter::Filter;

        let root = MemContext::new();
        root.bind(
            &"dead".into(),
            BoundValue::Reference(Reference::url("nosuch://host")),
        )
        .unwrap();
        let fed = FederatedContext::new(
            Arc::new(root),
            Arc::new(ProviderRegistry::new()),
            Environment::new(),
        );
        let controls = SearchControls {
            scope: SearchScope::Subtree,
            ..Default::default()
        };
        let hits = crate::context::DirContext::search(
            fed.as_ref(),
            &CompositeName::empty(),
            &Filter::parse("(k=v)").unwrap(),
            &controls,
        )
        .unwrap();
        assert!(hits.is_empty(), "unreachable mount is skipped, not fatal");
    }

    #[test]
    fn continuation_through_non_link_value_fails() {
        match continuation_context(
            BoundValue::I64(3),
            &ProviderRegistry::new(),
            &Environment::new(),
        ) {
            Err(NamingError::NotAContext { .. }) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("expected failure"),
        }
    }
}
