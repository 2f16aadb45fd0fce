//! The HDNS service provider (paper §5.2).
//!
//! "The control over the source code of HDNS allowed us to avoid certain
//! problems encountered in the context of Jini. HDNS was designed in a way
//! that mapping through JNDI was simple … a distributed locking algorithm
//! was not needed to implement an atomic bind for HDNS. In fact, all
//! methods from the JNDI DirContext interface are atomic in the HDNS
//! service provider." The same state/object factory translation and lease
//! shape as the Jini provider apply, but every operation maps 1:1 onto a
//! replicated store op whose outcome is decided identically at every
//! replica.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use hdns::{HdnsEntry, HdnsError, HdnsEvent, HdnsRealm, Op, RealmError, Replica};

use rndi_core::attrs::{AttrMod, Attribute, Attributes};
use rndi_core::context::{
    Binding, DirContext, NameClassPair, SearchControls, SearchItem, SearchScope,
};
use rndi_core::env::Environment;
use rndi_core::error::{NamingError, Result};
use rndi_core::event::EventHub;
use rndi_core::filter::Filter;
use rndi_core::name::CompositeName;
use rndi_core::op::{NamingOp, OpKind, OpOutcome};
use rndi_core::spi::boundary::{self, Bound};
use rndi_core::spi::{ProviderBackend, ProviderPipeline, UrlContextFactory, WireFormat};
use rndi_core::url::RndiUrl;
use rndi_core::value::BoundValue;
use rndi_obs::TraceCtx;

use crate::common;

fn realm_err(e: RealmError, name: &str) -> NamingError {
    use RealmError::*;
    match e {
        Store(HdnsError::AlreadyBound(p)) => NamingError::already_bound(p),
        Store(HdnsError::NotFound(p)) => NamingError::not_found(p),
        Store(HdnsError::NotAContext(p)) => NamingError::NotAContext { name: p },
        Store(HdnsError::NotEmpty(p)) => NamingError::ContextNotEmpty { name: p },
        Store(HdnsError::InvalidPath(p)) => NamingError::invalid_name(p, "invalid HDNS path"),
        NodeUnavailable => NamingError::service(format!("HDNS node unavailable for {name}")),
        // Not `Timeout`: a server reads that as its own overload signal.
        NotPrimary | TimedOut => NamingError::service(format!("{name}: {e}")),
    }
}

/// Encode a marshalled payload + `Attributes` into an HDNS entry (binds
/// arrive wire-encoded from the pipeline's marshalling layer).
fn to_entry(payload: Vec<u8>, attrs: &Attributes) -> HdnsEntry {
    attrs.iter().fold(HdnsEntry::leaf(payload), |e, a| {
        let vals: Vec<&str> = a.values.iter().filter_map(|v| v.as_str()).collect();
        e.with_attr(&a.id, &serde_json::to_string(&vals).expect("strings"))
    })
}

fn from_entry_attrs(e: &HdnsEntry) -> Result<Attributes> {
    let mut out = Attributes::new();
    for (id, json) in e.attrs() {
        let vals: Vec<String> = serde_json::from_str(json).map_err(|err| {
            NamingError::service(format!("stored attribute {id} is corrupt: {err}"))
        })?;
        let mut attr = Attribute::new(id);
        for v in vals {
            attr = attr.with(v);
        }
        out.put(attr);
    }
    Ok(out)
}

fn from_entry_value(e: &HdnsEntry) -> BoundValue {
    if e.is_context() {
        // Represented to clients as a null placeholder; navigation happens
        // through composite names, not live handles.
        BoundValue::Null
    } else {
        common::unmarshal(e.value())
    }
}

/// A naming backend over one HDNS replica (reads are replica-local; writes
/// replicate through the group), whoever hosts that replica — a realm or
/// an `rndi-cluster` node. Implements [`ProviderBackend`]; the
/// `Context`/`DirContext` surface comes from the [`ProviderPipeline`]
/// returned by [`HdnsProviderContext::new`].
pub struct HdnsProviderContext {
    /// The replica this context talks to (the paper's "nearest node").
    replica: Box<dyn Replica>,
    hub: Arc<EventHub>,
    /// `hdns:<instance>`.
    id: String,
}

impl HdnsProviderContext {
    pub fn new(realm: HdnsRealm, node: usize, instance: &str) -> Arc<ProviderPipeline<Self>> {
        Self::with_env(realm, node, instance, &Environment::new())
    }

    /// Construct over replica `node` of `realm`, with an environment
    /// controlling the pipeline stack.
    pub fn with_env(
        realm: HdnsRealm,
        node: usize,
        instance: &str,
        env: &Environment,
    ) -> Arc<ProviderPipeline<Self>> {
        Self::over(Box::new((realm, node)), &format!("{instance}#{node}"), env)
    }

    /// The same provider and pipeline over any hosted replica.
    pub fn over(
        replica: Box<dyn Replica>,
        instance: &str,
        env: &Environment,
    ) -> Arc<ProviderPipeline<Self>> {
        ProviderPipeline::standard(
            Arc::new(HdnsProviderContext {
                replica,
                hub: Arc::new(EventHub::new()),
                id: format!("hdns:{instance}"),
            }),
            env,
        )
    }

    /// The store path of a binding.
    fn path(&self, name: &CompositeName) -> Result<String> {
        if name.is_empty() {
            return Err(NamingError::invalid_name("", "empty name"));
        }
        Ok(self.base(name))
    }

    /// The store path a listing or search starts from (the root for the
    /// empty name).
    fn base(&self, name: &CompositeName) -> String {
        name.components().join("/")
    }

    /// Answers the federation probe: the entry at the longest bound prefix
    /// of the first `upto` components. The path is joined once; each
    /// shorter prefix is a slice of it.
    fn bound_prefix(&self, name: &CompositeName, upto: usize) -> Option<Bound> {
        let components = &name.components()[..upto];
        let path = components.join("/");
        let mut end = path.len();
        for (k, last) in components.iter().enumerate().rev() {
            if let Some(e) = self.replica.lookup(&path[..end]) {
                return Some(if e.is_context() {
                    Bound::context(k + 1)
                } else {
                    Bound::leaf(k + 1, common::unmarshal(e.value()))
                });
            }
            end = end.saturating_sub(last.len() + 1);
        }
        None
    }

    /// Pump replica events into the provider hub. Driven by write
    /// operations (which already pump the replica) and by
    /// [`HdnsProviderContext::poll_events`].
    fn drain_events(&self) {
        for ev in self.replica.take_events() {
            match ev {
                HdnsEvent::Bound { path } => {
                    self.hub.fire_added(path_to_name(&path), BoundValue::Null)
                }
                HdnsEvent::Changed { path } => {
                    self.hub
                        .fire_changed(path_to_name(&path), None, BoundValue::Null)
                }
                HdnsEvent::Removed { path } => self.hub.fire_removed(path_to_name(&path), None),
                HdnsEvent::Renamed { from, to } => {
                    self.hub.fire_removed(path_to_name(&from), None);
                    self.hub.fire_added(path_to_name(&to), BoundValue::Null);
                }
                HdnsEvent::Resynced => {}
            }
        }
    }

    /// Deliver pending replica change events to listeners.
    pub fn poll_events(&self) {
        self.replica.pump();
        self.drain_events();
    }

    fn search_recursive(
        &self,
        base: &str,
        rel: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
        out: &mut Vec<SearchItem>,
    ) -> Result<()> {
        for (child, entry) in self.replica.list(base) {
            if controls.count_limit > 0 && out.len() >= controls.count_limit {
                return Ok(());
            }
            let rel_name = rel.child(&child);
            let attrs = from_entry_attrs(&entry)?;
            if filter.matches(&attrs) {
                let attrs = match &controls.return_attrs {
                    Some(ids) => {
                        let ids: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
                        attrs.project(&ids)
                    }
                    None => attrs,
                };
                out.push(SearchItem {
                    name: rel_name.to_string(),
                    value: controls.return_values.then(|| from_entry_value(&entry)),
                    attrs,
                });
            }
            if controls.scope == SearchScope::Subtree && entry.is_context() {
                let child_base = if base.is_empty() {
                    child.clone()
                } else {
                    format!("{base}/{child}")
                };
                self.search_recursive(&child_base, &rel_name, filter, controls, out)?;
            }
        }
        Ok(())
    }
}

fn path_to_name(path: &str) -> CompositeName {
    CompositeName::from_components(path.split('/').map(String::from))
}

impl HdnsProviderContext {
    /// Replicate one write through this context's replica, handing its
    /// host the op's trace context so its server span links under ours,
    /// then pump the resulting replica events to listeners.
    fn write(&self, op: Op, path: &str, trace: Option<&TraceCtx>) -> Result<()> {
        let r = self
            .replica
            .write(op, trace)
            .map_err(|e| realm_err(e, path));
        self.drain_events();
        r
    }

    fn lookup(&self, name: &CompositeName) -> Result<BoundValue> {
        let path = self.path(name)?;
        let entry = self
            .replica
            .lookup(&path)
            .ok_or_else(|| NamingError::not_found(path))?;
        Ok(from_entry_value(&entry))
    }

    fn unbind(&self, name: &CompositeName, trace: Option<&TraceCtx>) -> Result<()> {
        let path = self.path(name)?;
        self.write(Op::Unbind { path: path.clone() }, &path, trace)
    }

    fn rename(
        &self,
        old: &CompositeName,
        new: &CompositeName,
        trace: Option<&TraceCtx>,
    ) -> Result<()> {
        let from = self.path(old)?;
        let to = self.path(new)?;
        self.write(
            Op::Rename {
                from: from.clone(),
                to,
            },
            &from,
            trace,
        )
    }

    fn list(&self, name: &CompositeName) -> Result<Vec<NameClassPair>> {
        let prefix = self.base(name);
        Ok(self
            .replica
            .list(&prefix)
            .into_iter()
            .map(|(n, e)| NameClassPair {
                name: n,
                class_name: if e.is_context() {
                    "context".to_string()
                } else {
                    from_entry_value(&e).class_name().to_string()
                },
            })
            .collect())
    }

    fn list_bindings(&self, name: &CompositeName) -> Result<Vec<Binding>> {
        let prefix = self.base(name);
        Ok(self
            .replica
            .list(&prefix)
            .into_iter()
            .map(|(n, e)| Binding {
                name: n,
                value: from_entry_value(&e),
            })
            .collect())
    }

    fn create_subcontext(&self, name: &CompositeName, trace: Option<&TraceCtx>) -> Result<()> {
        let path = self.path(name)?;
        self.write(Op::CreateContext { path: path.clone() }, &path, trace)
    }

    fn destroy_subcontext(&self, name: &CompositeName, trace: Option<&TraceCtx>) -> Result<()> {
        let path = self.path(name)?;
        match self.replica.lookup(&path) {
            None => Ok(()),
            Some(e) if e.is_context() => {
                self.write(Op::Unbind { path: path.clone() }, &path, trace)
            }
            Some(_) => Err(NamingError::ContextExpected { name: path }),
        }
    }

    fn get_attributes(&self, name: &CompositeName) -> Result<Attributes> {
        let path = self.path(name)?;
        let entry = self
            .replica
            .lookup(&path)
            .ok_or_else(|| NamingError::not_found(path))?;
        from_entry_attrs(&entry)
    }

    fn modify_attributes(
        &self,
        name: &CompositeName,
        mods: &[AttrMod],
        trace: Option<&TraceCtx>,
    ) -> Result<()> {
        let path = self.path(name)?;
        let entry = self
            .replica
            .lookup(&path)
            .ok_or_else(|| NamingError::not_found(&path))?;
        let mut attrs = from_entry_attrs(&entry)?;
        for m in mods {
            m.apply(&mut attrs);
        }
        let mut map = std::collections::BTreeMap::new();
        for a in attrs.iter() {
            let vals: Vec<&str> = a.values.iter().filter_map(|v| v.as_str()).collect();
            map.insert(a.id.clone(), serde_json::to_string(&vals).expect("strings"));
        }
        self.write(
            Op::SetAttrs {
                path: path.clone(),
                attrs: map,
            },
            &path,
            trace,
        )
    }

    fn bind_with_attrs(
        &self,
        name: &CompositeName,
        payload: Vec<u8>,
        attrs: &Attributes,
        overwrite: bool,
        trace: Option<&TraceCtx>,
    ) -> Result<()> {
        let path = self.path(name)?;
        self.write(
            Op::Bind {
                path: path.clone(),
                entry: to_entry(payload, attrs),
                overwrite,
            },
            &path,
            trace,
        )
    }

    fn search(
        &self,
        name: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
    ) -> Result<Vec<SearchItem>> {
        // HDNS has no server-side query engine; the provider evaluates the
        // filter client-side over a replica-local listing (§3's
        // capability-emulation point).
        let base = self.base(name);
        let mut out = Vec::new();
        self.search_recursive(&base, &CompositeName::empty(), filter, controls, &mut out)?;
        Ok(out)
    }
}

impl ProviderBackend for HdnsProviderContext {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        // The replica's host takes the caller's trace context as an argument
        // (same process, nothing to marshal) and records its own server span.
        let trace = op.trace_ctx();
        let trace = trace.as_ref();
        boundary::run(
            op,
            |upto| Ok(self.bound_prefix(&op.name, upto)),
            || match op.kind {
                OpKind::Lookup => self.lookup(&op.name).map(OpOutcome::Value),
                OpKind::Bind | OpKind::BindWithAttrs | OpKind::Rebind | OpKind::RebindWithAttrs => {
                    let (payload, _) = op.wire_value()?;
                    let attrs = op.attrs.clone().unwrap_or_default();
                    let overwrite = matches!(op.kind, OpKind::Rebind | OpKind::RebindWithAttrs);
                    self.bind_with_attrs(&op.name, payload, &attrs, overwrite, trace)?;
                    Ok(OpOutcome::Done)
                }
                OpKind::Unbind => self.unbind(&op.name, trace).map(|_| OpOutcome::Done),
                OpKind::Rename => self
                    .rename(&op.name, op.new_name()?, trace)
                    .map(|_| OpOutcome::Done),
                OpKind::List => self.list(&op.name).map(OpOutcome::Names),
                OpKind::ListBindings => self.list_bindings(&op.name).map(OpOutcome::Bindings),
                OpKind::CreateSubcontext => self
                    .create_subcontext(&op.name, trace)
                    .map(|_| OpOutcome::Done),
                OpKind::DestroySubcontext => self
                    .destroy_subcontext(&op.name, trace)
                    .map(|_| OpOutcome::Done),
                OpKind::GetAttributes => self.get_attributes(&op.name).map(OpOutcome::Attrs),
                OpKind::ModifyAttributes => self
                    .modify_attributes(&op.name, op.mods()?, trace)
                    .map(|_| OpOutcome::Done),
                OpKind::Search => {
                    let (filter, controls) = op.query()?;
                    self.search(&op.name, filter, controls)
                        .map(OpOutcome::Found)
                }
                OpKind::AddListener => Ok(OpOutcome::Subscribed(
                    self.hub.subscribe(op.name.clone(), op.listener()?),
                )),
                OpKind::RemoveListener => {
                    self.hub.unsubscribe(op.listener_handle()?);
                    Ok(OpOutcome::Done)
                }
            },
        )
    }

    fn provider_id(&self) -> String {
        self.id.clone()
    }

    fn event_hub(&self) -> Option<Arc<EventHub>> {
        Some(self.hub.clone())
    }

    fn wire_format(&self) -> WireFormat {
        WireFormat::Encoded
    }
}

/// URL factory: `hdns://host[:port]/...`. Hosts map to `(realm, replica)`
/// pairs registered by the deployment.
pub struct HdnsFactory {
    hosts: Mutex<HashMap<String, (HdnsRealm, usize)>>,
    /// One pipeline per host, so interceptor state (cache, stats) survives
    /// across `create` calls for the same replica.
    contexts: Mutex<HashMap<String, Arc<ProviderPipeline<HdnsProviderContext>>>>,
}

impl HdnsFactory {
    pub fn new() -> Arc<Self> {
        Arc::new(HdnsFactory {
            hosts: Mutex::new(HashMap::new()),
            contexts: Mutex::new(HashMap::new()),
        })
    }

    /// Register `host` as reaching replica `node` of `realm`.
    pub fn register_host(&self, host: &str, realm: HdnsRealm, node: usize) {
        self.hosts.lock().insert(host.to_string(), (realm, node));
        self.contexts.lock().remove(host);
    }
}

impl UrlContextFactory for HdnsFactory {
    fn scheme(&self) -> &str {
        "hdns"
    }

    fn create(&self, url: &RndiUrl, env: &Environment) -> Result<Arc<dyn DirContext>> {
        if let Some(ctx) = self.contexts.lock().get(&url.host) {
            return Ok(ctx.clone());
        }
        let (realm, node) =
            self.hosts.lock().get(&url.host).cloned().ok_or_else(|| {
                NamingError::service(format!("no HDNS node known as {}", url.host))
            })?;
        let ctx = HdnsProviderContext::with_env(realm, node, &url.host, env);
        self.contexts.lock().insert(url.host.clone(), ctx.clone());
        Ok(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupcast::StackConfig;
    use rndi_core::context::{Context, ContextExt};
    use rndi_core::op::OpPayload;
    use rndi_core::value::Reference;

    type Pipeline = Arc<ProviderPipeline<HdnsProviderContext>>;

    fn setup() -> (Pipeline, Pipeline) {
        let realm = HdnsRealm::new("t", 2, StackConfig::default(), None, 3);
        let a = HdnsProviderContext::new(realm.clone(), 0, "t");
        let b = HdnsProviderContext::new(realm, 1, "t");
        (a, b)
    }

    #[test]
    fn bind_visible_from_other_replica() {
        let (a, b) = setup();
        a.bind_str("svc", "value").unwrap();
        assert_eq!(b.lookup_str("svc").unwrap().as_str(), Some("value"));
    }

    #[test]
    fn atomic_bind_native() {
        let (a, b) = setup();
        a.bind_str("k", "1").unwrap();
        assert!(matches!(
            b.bind_str("k", "2"),
            Err(NamingError::AlreadyBound { .. })
        ));
        b.rebind_str("k", "2").unwrap();
        assert_eq!(a.lookup_str("k").unwrap().as_str(), Some("2"));
    }

    #[test]
    fn hierarchy_and_listing() {
        let (a, b) = setup();
        a.create_subcontext(&"dept".into()).unwrap();
        a.bind_str("dept/x", "1").unwrap();
        b.bind_str("dept/y", "2").unwrap();
        let names: Vec<String> = b
            .list(&"dept".into())
            .unwrap()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, vec!["x", "y"]);
        // Destroy guards.
        assert!(matches!(
            a.destroy_subcontext(&"dept".into()),
            Err(NamingError::ContextNotEmpty { .. })
        ));
        a.unbind_str("dept/x").unwrap();
        a.unbind_str("dept/y").unwrap();
        a.destroy_subcontext(&"dept".into()).unwrap();
    }

    #[test]
    fn attributes_and_search() {
        let (a, b) = setup();
        a.bind_with_attrs(
            &"n1".into(),
            BoundValue::str("s"),
            common::attrs(&[("os", "linux"), ("cpu", "16")]),
        )
        .unwrap();
        a.bind_with_attrs(
            &"n2".into(),
            BoundValue::str("s"),
            common::attrs(&[("os", "irix")]),
        )
        .unwrap();
        let attrs = b.get_attributes(&"n1".into()).unwrap();
        assert_eq!(attrs.get("cpu").unwrap().first_str(), Some("16"));

        let hits = b
            .search(
                &CompositeName::empty(),
                &Filter::parse("(os=linux)").unwrap(),
                &SearchControls::default(),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "n1");
    }

    #[test]
    fn subtree_search() {
        let (a, _) = setup();
        a.create_subcontext(&"d".into()).unwrap();
        a.bind_with_attrs(
            &"d/deep".into(),
            BoundValue::Null,
            common::attrs(&[("kind", "x")]),
        )
        .unwrap();
        let hits = a
            .search(
                &CompositeName::empty(),
                &Filter::parse("(kind=x)").unwrap(),
                &SearchControls {
                    scope: SearchScope::Subtree,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "d/deep");
    }

    #[test]
    fn federation_mount_continues() {
        let (a, _) = setup();
        a.bind(
            &"jiniCtx".into(),
            BoundValue::Reference(Reference::url("jini://host1")),
        )
        .unwrap();
        let err = a.lookup(&"jiniCtx/service".into()).unwrap_err();
        assert!(err.is_continue());
    }

    #[test]
    fn rename_moves_binding() {
        let (a, b) = setup();
        a.bind_str("old", "v").unwrap();
        a.rename(&"old".into(), &"new".into()).unwrap();
        assert!(b.lookup_str("old").is_err());
        assert_eq!(b.lookup_str("new").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn events_delivered_to_listeners() {
        use rndi_core::event::EventType::{ObjectAdded, ObjectRemoved};
        let (a, b) = setup();
        let l = rndi_core::event::CollectingListener::new();
        b.add_listener(&CompositeName::empty(), l.clone()).unwrap();
        a.bind_str("e", "1").unwrap();
        // Applies (unbind is idempotent) but removes nothing: no event.
        a.unbind_str("ghost").unwrap();
        a.unbind_str("e").unwrap();
        b.poll_events();
        let seen: Vec<_> = l
            .drain()
            .into_iter()
            .map(|e| (e.event_type, e.name.to_string()))
            .collect();
        assert_eq!(
            seen,
            [(ObjectAdded, "e".into()), (ObjectRemoved, "e".into())]
        );
    }

    #[test]
    fn every_traced_write_links_a_server_span_under_the_provider_span() {
        let realm = HdnsRealm::new("obs-hdns", 2, StackConfig::default(), None, 3);
        let a = HdnsProviderContext::new(realm.clone(), 0, "obs-hdns");
        let b = HdnsProviderContext::new(realm, 1, "obs-hdns");
        a.bind_str("traced", "payload").unwrap();
        a.rebind_str("traced", "payload-2").unwrap();
        a.rename(&"traced".into(), &"moved".into()).unwrap();
        assert_eq!(b.lookup_str("moved").unwrap().as_str(), Some("payload-2"));
        a.unbind_str("moved").unwrap();
        // The realm got each op's context as an argument — unbind and
        // rename carry no value bytes, so nothing in-band could do this —
        // and recorded a server span whose parent is the provider
        // pipeline's span for that same op.
        let ring = rndi_obs::trace::ring();
        let spans = ring.snapshot();
        for op in ["bind", "rebind", "rename", "unbind"] {
            let server = spans
                .iter()
                .rev()
                .find(|s| s.layer == "server" && &*s.provider == "hdns:obs-hdns" && s.op == op)
                .unwrap_or_else(|| panic!("server span recorded for {op}"));
            let parent = ring
                .trace(server.trace_id)
                .into_iter()
                .find(|s| s.span_id == server.parent_span)
                .unwrap_or_else(|| panic!("{op}: server span's parent is in its trace"));
            assert_eq!(
                (parent.layer.as_ref(), &*parent.provider, parent.op.as_ref()),
                ("pipeline", "hdns:obs-hdns#0", op)
            );
        }
    }

    #[test]
    fn foreign_payload_that_looks_like_a_trace_header_survives_byte_exact() {
        let realm = HdnsRealm::new("foreign", 2, StackConfig::default(), None, 3);
        let a = HdnsProviderContext::new(realm.clone(), 0, "foreign");
        let b = HdnsProviderContext::new(realm.clone(), 1, "foreign");
        let foreign = b"%RNDI-TRACE:1-2-0-0\nabc".to_vec();
        let mut op = NamingOp::bind("x".into(), BoundValue::Null);
        op.payload = OpPayload::Wire {
            bytes: foreign.clone(),
            class_name: "bytes".into(),
        };
        a.execute(&op).unwrap();
        assert_eq!(realm.lookup(1, "x").unwrap().value(), foreign);
        assert_eq!(
            b.lookup(&"x".into()).unwrap(),
            BoundValue::Bytes(foreign),
            "undecodable bytes surface raw, untruncated"
        );
    }

    #[test]
    fn modify_attributes_roundtrip() {
        let (a, b) = setup();
        a.bind_with_attrs(
            &"m".into(),
            BoundValue::Null,
            common::attrs(&[("state", "up")]),
        )
        .unwrap();
        a.modify_attributes(
            &"m".into(),
            &[AttrMod::Add(Attribute::single("note", "ok"))],
        )
        .unwrap();
        let attrs = b.get_attributes(&"m".into()).unwrap();
        assert!(attrs.contains("state") && attrs.contains("note"));
    }
}
