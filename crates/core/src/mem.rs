//! An in-memory hierarchical directory context.
//!
//! `MemContext` is the reference implementation of the full
//! [`DirContext`] conformance level: hierarchical namespace, atomic bind,
//! attributes, search, events, rename — everything. Providers use it as a
//! behavioural oracle in tests, and it doubles as a lightweight local
//! naming service (the "local filesystem storage" slot in the paper's
//! federation examples is backed by a persistent variant in
//! `rndi-providers`).
//!
//! Federation: a bound value that is a live context or a URL reference acts
//! as a mount point — resolution that must pass *through* it returns
//! [`NamingError::Continue`] for the federation driver to handle.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::attrs::{AttrMod, Attributes};
use crate::context::{
    Binding, Context, DirContext, NameClassPair, SearchControls, SearchItem, SearchScope,
};
use crate::error::{NamingError, Result};
use crate::event::{EventHub, ListenerHandle, NamingListener};
use crate::filter::Filter;
use crate::name::CompositeName;
use crate::value::BoundValue;

#[derive(Clone)]
struct Entry {
    attrs: Attributes,
    node: Node,
}

#[derive(Clone)]
enum Node {
    Leaf(BoundValue),
    Sub(MemContext),
}

struct Inner {
    /// Absolute name of this context within its tree (for event names).
    base: CompositeName,
    entries: RwLock<BTreeMap<String, Entry>>,
    hub: Arc<EventHub>,
}

/// A cheaply cloneable in-memory directory context.
#[derive(Clone)]
pub struct MemContext {
    inner: Arc<Inner>,
}

impl Default for MemContext {
    fn default() -> Self {
        Self::new()
    }
}

impl MemContext {
    /// Create an empty root context.
    pub fn new() -> Self {
        MemContext {
            inner: Arc::new(Inner {
                base: CompositeName::empty(),
                entries: RwLock::new(BTreeMap::new()),
                hub: Arc::new(EventHub::new()),
            }),
        }
    }

    fn new_child(&self, component: &str) -> MemContext {
        MemContext {
            inner: Arc::new(Inner {
                base: self.inner.base.child(component),
                entries: RwLock::new(BTreeMap::new()),
                hub: self.inner.hub.clone(),
            }),
        }
    }

    fn abs(&self, component: &str) -> CompositeName {
        self.inner.base.child(component)
    }

    /// Resolve all but the last component, then run `f` on the owning
    /// context and final component. Crossing a federation mount returns
    /// `Continue`.
    fn with_parent<R>(
        &self,
        name: &CompositeName,
        f: &mut dyn FnMut(&MemContext, &str) -> Result<R>,
    ) -> Result<R> {
        match name.len() {
            0 => Err(NamingError::invalid_name("", "empty name")),
            1 => f(self, name.head().expect("len checked")),
            _ => {
                let head = name.head().expect("len checked");
                let entry = self
                    .inner
                    .entries
                    .read()
                    .get(head)
                    .cloned()
                    .ok_or_else(|| NamingError::not_found(self.abs(head).to_string()))?;
                match entry.node {
                    Node::Sub(sub) => sub.with_parent(&name.tail(), f),
                    Node::Leaf(value) if value.is_federation_link() => Err(NamingError::Continue {
                        resolved: value,
                        remaining: name.tail(),
                    }),
                    Node::Leaf(_) => Err(NamingError::NotAContext {
                        name: self.abs(head).to_string(),
                    }),
                }
            }
        }
    }

    /// Resolve a name to the context it denotes (empty name = self).
    fn resolve_context(&self, name: &CompositeName) -> Result<MemContext> {
        if name.is_empty() {
            return Ok(self.clone());
        }
        let head = name.head().expect("non-empty");
        let entry = self
            .inner
            .entries
            .read()
            .get(head)
            .cloned()
            .ok_or_else(|| NamingError::not_found(self.abs(head).to_string()))?;
        match entry.node {
            Node::Sub(sub) => sub.resolve_context(&name.tail()),
            Node::Leaf(value) if value.is_federation_link() => Err(NamingError::Continue {
                resolved: value,
                remaining: name.tail(),
            }),
            Node::Leaf(_) => Err(NamingError::ContextExpected {
                name: self.abs(head).to_string(),
            }),
        }
    }

    fn entry_value(entry: &Entry) -> BoundValue {
        match &entry.node {
            Node::Leaf(v) => v.clone(),
            Node::Sub(sub) => BoundValue::Context(Arc::new(sub.clone())),
        }
    }

    fn do_bind(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
        overwrite: bool,
    ) -> Result<()> {
        self.with_parent(name, &mut |ctx, last| {
            let mut entries = ctx.inner.entries.write();
            let existed = entries.get(last).map(Self::entry_value);
            if existed.is_some() && !overwrite {
                return Err(NamingError::already_bound(ctx.abs(last).to_string()));
            }
            entries.insert(
                last.to_string(),
                Entry {
                    attrs: attrs.clone(),
                    node: Node::Leaf(value.clone()),
                },
            );
            drop(entries);
            match existed {
                Some(old) => ctx
                    .inner
                    .hub
                    .fire_changed(ctx.abs(last), Some(old), value.clone()),
                None => ctx.inner.hub.fire_added(ctx.abs(last), value.clone()),
            }
            Ok(())
        })
    }

    fn search_into(
        &self,
        rel: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
        out: &mut Vec<SearchItem>,
    ) {
        let entries = self.inner.entries.read().clone();
        for (name, entry) in entries {
            if controls.count_limit > 0 && out.len() >= controls.count_limit {
                return;
            }
            let rel_name = rel.child(&name);
            if filter.matches(&entry.attrs) {
                let attrs = match &controls.return_attrs {
                    Some(ids) => {
                        let ids: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
                        entry.attrs.project(&ids)
                    }
                    None => entry.attrs.clone(),
                };
                out.push(SearchItem {
                    name: rel_name.to_string(),
                    value: controls.return_values.then(|| Self::entry_value(&entry)),
                    attrs,
                });
            }
            if controls.scope == SearchScope::Subtree {
                if let Node::Sub(sub) = &entry.node {
                    sub.search_into(&rel_name, filter, controls, out);
                }
            }
        }
    }
}

impl Context for MemContext {
    fn lookup(&self, name: &CompositeName) -> Result<BoundValue> {
        if name.is_empty() {
            return Ok(BoundValue::Context(Arc::new(self.clone())));
        }
        self.with_parent(name, &mut |ctx, last| {
            let entries = ctx.inner.entries.read();
            let entry = entries
                .get(last)
                .ok_or_else(|| NamingError::not_found(ctx.abs(last).to_string()))?;
            Ok(Self::entry_value(entry))
        })
    }

    fn bind(&self, name: &CompositeName, value: BoundValue) -> Result<()> {
        self.do_bind(name, value, Attributes::new(), false)
    }

    fn rebind(&self, name: &CompositeName, value: BoundValue) -> Result<()> {
        self.do_bind(name, value, Attributes::new(), true)
    }

    fn unbind(&self, name: &CompositeName) -> Result<()> {
        self.with_parent(name, &mut |ctx, last| {
            let removed = {
                let mut entries = ctx.inner.entries.write();
                if let Some(entry) = entries.get(last) {
                    if let Node::Sub(sub) = &entry.node {
                        if !sub.inner.entries.read().is_empty() {
                            return Err(NamingError::ContextNotEmpty {
                                name: ctx.abs(last).to_string(),
                            });
                        }
                    }
                }
                entries.remove(last)
            };
            if let Some(entry) = removed {
                ctx.inner
                    .hub
                    .fire_removed(ctx.abs(last), Some(Self::entry_value(&entry)));
            }
            // Unbinding an unbound name succeeds (JNDI semantics).
            Ok(())
        })
    }

    fn rename(&self, old: &CompositeName, new: &CompositeName) -> Result<()> {
        // Take the old entry out, bind it under the new name, restoring on
        // failure so the operation stays atomic from the caller's view.
        let entry = self.with_parent(old, &mut |ctx, last| {
            let mut entries = ctx.inner.entries.write();
            entries
                .remove(last)
                .ok_or_else(|| NamingError::not_found(ctx.abs(last).to_string()))
        })?;
        let reinsert = entry.clone();
        let result = self.with_parent(new, &mut |ctx, last| {
            let mut entries = ctx.inner.entries.write();
            if entries.contains_key(last) {
                return Err(NamingError::already_bound(ctx.abs(last).to_string()));
            }
            entries.insert(last.to_string(), entry.clone());
            Ok(())
        });
        if result.is_err() {
            // Put it back where it was.
            let _ = self.with_parent(old, &mut |ctx, last| {
                ctx.inner
                    .entries
                    .write()
                    .insert(last.to_string(), reinsert.clone());
                Ok(())
            });
        }
        result
    }

    fn list(&self, name: &CompositeName) -> Result<Vec<NameClassPair>> {
        let ctx = self.resolve_context(name)?;
        let entries = ctx.inner.entries.read();
        Ok(entries
            .iter()
            .map(|(n, e)| NameClassPair {
                name: n.clone(),
                class_name: Self::entry_value(e).class_name().to_string(),
            })
            .collect())
    }

    fn list_bindings(&self, name: &CompositeName) -> Result<Vec<Binding>> {
        let ctx = self.resolve_context(name)?;
        let entries = ctx.inner.entries.read();
        Ok(entries
            .iter()
            .map(|(n, e)| Binding {
                name: n.clone(),
                value: Self::entry_value(e),
            })
            .collect())
    }

    fn create_subcontext(&self, name: &CompositeName) -> Result<()> {
        self.with_parent(name, &mut |ctx, last| {
            let mut entries = ctx.inner.entries.write();
            if entries.contains_key(last) {
                return Err(NamingError::already_bound(ctx.abs(last).to_string()));
            }
            let sub = ctx.new_child(last);
            entries.insert(
                last.to_string(),
                Entry {
                    attrs: Attributes::new(),
                    node: Node::Sub(sub.clone()),
                },
            );
            drop(entries);
            ctx.inner
                .hub
                .fire_added(ctx.abs(last), BoundValue::Context(Arc::new(sub)));
            Ok(())
        })
    }

    fn destroy_subcontext(&self, name: &CompositeName) -> Result<()> {
        self.with_parent(name, &mut |ctx, last| {
            let mut entries = ctx.inner.entries.write();
            match entries.get(last) {
                None => Ok(()), // destroying a non-existent context succeeds
                Some(Entry {
                    node: Node::Sub(sub),
                    ..
                }) => {
                    if !sub.inner.entries.read().is_empty() {
                        return Err(NamingError::ContextNotEmpty {
                            name: ctx.abs(last).to_string(),
                        });
                    }
                    entries.remove(last);
                    drop(entries);
                    ctx.inner.hub.fire_removed(ctx.abs(last), None);
                    Ok(())
                }
                Some(_) => Err(NamingError::ContextExpected {
                    name: ctx.abs(last).to_string(),
                }),
            }
        })
    }

    fn add_listener(
        &self,
        name: &CompositeName,
        listener: Arc<dyn NamingListener>,
    ) -> Result<ListenerHandle> {
        Ok(self
            .inner
            .hub
            .subscribe(self.inner.base.join(name), listener))
    }

    fn remove_listener(&self, handle: ListenerHandle) -> Result<()> {
        self.inner.hub.unsubscribe(handle);
        Ok(())
    }

    fn provider_id(&self) -> String {
        format!("mem:{}", self.inner.base)
    }
}

impl DirContext for MemContext {
    fn get_attributes(&self, name: &CompositeName) -> Result<Attributes> {
        if name.is_empty() {
            return Ok(Attributes::new());
        }
        self.with_parent(name, &mut |ctx, last| {
            let entries = ctx.inner.entries.read();
            entries
                .get(last)
                .map(|e| e.attrs.clone())
                .ok_or_else(|| NamingError::not_found(ctx.abs(last).to_string()))
        })
    }

    fn modify_attributes(&self, name: &CompositeName, mods: &[AttrMod]) -> Result<()> {
        self.with_parent(name, &mut |ctx, last| {
            let mut entries = ctx.inner.entries.write();
            let entry = entries
                .get_mut(last)
                .ok_or_else(|| NamingError::not_found(ctx.abs(last).to_string()))?;
            for m in mods {
                m.apply(&mut entry.attrs);
            }
            Ok(())
        })
    }

    fn bind_with_attrs(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
    ) -> Result<()> {
        self.do_bind(name, value, attrs, false)
    }

    fn rebind_with_attrs(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
    ) -> Result<()> {
        self.do_bind(name, value, attrs, true)
    }

    fn search(
        &self,
        name: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
    ) -> Result<Vec<SearchItem>> {
        let base = self.resolve_context(name)?;
        let mut out = Vec::new();
        match controls.scope {
            SearchScope::Object => {
                if name.is_empty() {
                    return Ok(out);
                }
                let attrs = self.get_attributes(name)?;
                if filter.matches(&attrs) {
                    out.push(SearchItem {
                        name: String::new(),
                        value: controls
                            .return_values
                            .then(|| self.lookup(name))
                            .transpose()?,
                        attrs,
                    });
                }
            }
            SearchScope::OneLevel | SearchScope::Subtree => {
                base.search_into(&CompositeName::empty(), filter, controls, &mut out);
            }
        }
        Ok(out)
    }
}

/// A URL factory serving `mem://<host>` from a registry of named in-memory
/// roots. Handy as a lightweight provider in tests, examples, and as the
/// "scratch" member of a federation.
pub struct MemFactory {
    scheme: String,
    hosts: parking_lot::Mutex<std::collections::HashMap<String, MemContext>>,
}

impl MemFactory {
    /// Create with the default `mem` scheme.
    pub fn new() -> Arc<Self> {
        Self::with_scheme("mem")
    }

    /// Create under a custom scheme (tests sometimes masquerade an
    /// in-memory context as another service).
    fn with_scheme(scheme: &str) -> Arc<Self> {
        Arc::new(MemFactory {
            scheme: scheme.to_ascii_lowercase(),
            hosts: parking_lot::Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// Register (or replace) the root context served as `host`.
    pub fn register_host(&self, host: &str, ctx: MemContext) {
        self.hosts.lock().insert(host.to_string(), ctx);
    }

    /// Fetch a registered root (e.g. for direct backend assertions).
    pub fn host(&self, host: &str) -> Option<MemContext> {
        self.hosts.lock().get(host).cloned()
    }
}

impl crate::spi::UrlContextFactory for MemFactory {
    fn scheme(&self) -> &str {
        &self.scheme
    }

    fn create(
        &self,
        url: &crate::url::RndiUrl,
        _env: &crate::env::Environment,
    ) -> Result<Arc<dyn DirContext>> {
        // Unknown hosts are auto-created: an in-memory service "exists"
        // the moment someone names it, which is the behaviour tests want.
        let ctx = self
            .hosts
            .lock()
            .entry(url.host.clone())
            .or_default()
            .clone();
        Ok(Arc::new(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextExt;
    use crate::event::CollectingListener;
    use crate::value::Reference;

    fn ctx() -> MemContext {
        MemContext::new()
    }

    #[test]
    fn bind_lookup_roundtrip() {
        let c = ctx();
        c.bind_str("key", "value").unwrap();
        assert_eq!(c.lookup_str("key").unwrap().as_str(), Some("value"));
    }

    #[test]
    fn atomic_bind_rejects_duplicate() {
        let c = ctx();
        c.bind_str("k", "v1").unwrap();
        assert!(matches!(
            c.bind_str("k", "v2"),
            Err(NamingError::AlreadyBound { .. })
        ));
        // Value unchanged.
        assert_eq!(c.lookup_str("k").unwrap().as_str(), Some("v1"));
        // rebind overwrites.
        c.rebind_str("k", "v2").unwrap();
        assert_eq!(c.lookup_str("k").unwrap().as_str(), Some("v2"));
    }

    #[test]
    fn hierarchical_binding() {
        let c = ctx();
        c.create_subcontext(&"a".into()).unwrap();
        c.create_subcontext(&"a/b".into()).unwrap();
        c.bind_str("a/b/leaf", "deep").unwrap();
        assert_eq!(c.lookup_str("a/b/leaf").unwrap().as_str(), Some("deep"));
        // Intermediate lookup returns a context value.
        assert!(c.lookup_str("a/b").unwrap().as_context().is_some());
    }

    #[test]
    fn missing_intermediate_is_not_found() {
        let c = ctx();
        assert!(matches!(
            c.bind_str("no/such/path", "v"),
            Err(NamingError::NameNotFound { .. })
        ));
    }

    #[test]
    fn leaf_in_the_middle_is_not_a_context() {
        let c = ctx();
        c.bind_str("x", "leaf").unwrap();
        assert!(matches!(
            c.lookup_str("x/y"),
            Err(NamingError::NotAContext { .. })
        ));
    }

    #[test]
    fn unbind_is_idempotent_but_guards_nonempty_contexts() {
        let c = ctx();
        c.bind_str("k", "v").unwrap();
        c.unbind_str("k").unwrap();
        c.unbind_str("k").unwrap(); // second unbind is fine
        assert!(c.lookup_str("k").is_err());

        c.create_subcontext(&"sub".into()).unwrap();
        c.bind_str("sub/x", "v").unwrap();
        assert!(matches!(
            c.unbind_str("sub"),
            Err(NamingError::ContextNotEmpty { .. })
        ));
        c.unbind_str("sub/x").unwrap();
        c.unbind_str("sub").unwrap();
    }

    #[test]
    fn list_and_list_bindings() {
        let c = ctx();
        c.bind_str("b", "2").unwrap();
        c.bind_str("a", "1").unwrap();
        c.create_subcontext(&"z".into()).unwrap();
        let names: Vec<String> = c
            .list_str("")
            .unwrap()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, vec!["a", "b", "z"], "sorted enumeration");
        let pairs = c.list_str("").unwrap();
        assert_eq!(pairs[2].class_name, "context");
        let bindings = c.list_bindings(&CompositeName::empty()).unwrap();
        assert_eq!(bindings[0].value.as_str(), Some("1"));
    }

    #[test]
    fn rename_moves_and_is_atomic_on_failure() {
        let c = ctx();
        c.bind_str("old", "v").unwrap();
        c.rename(&"old".into(), &"new".into()).unwrap();
        assert!(c.lookup_str("old").is_err());
        assert_eq!(c.lookup_str("new").unwrap().as_str(), Some("v"));

        c.bind_str("taken", "t").unwrap();
        let err = c.rename(&"new".into(), &"taken".into());
        assert!(matches!(err, Err(NamingError::AlreadyBound { .. })));
        // Source restored.
        assert_eq!(c.lookup_str("new").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn attributes_and_search() {
        let c = ctx();
        c.bind_with_attrs(
            &"node1".into(),
            BoundValue::str("stub1"),
            Attributes::new().with("os", "linux").with("cpu", "8"),
        )
        .unwrap();
        c.bind_with_attrs(
            &"node2".into(),
            BoundValue::str("stub2"),
            Attributes::new().with("os", "windows").with("cpu", "16"),
        )
        .unwrap();

        let f = Filter::parse("(os=linux)").unwrap();
        let hits = c
            .search(&CompositeName::empty(), &f, &SearchControls::default())
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "node1");

        let f = Filter::parse("(cpu>=8)").unwrap();
        let hits = c
            .search(&CompositeName::empty(), &f, &SearchControls::default())
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn subtree_search_descends() {
        let c = ctx();
        c.create_subcontext(&"dept".into()).unwrap();
        c.bind_with_attrs(
            &"dept/host1".into(),
            BoundValue::str("x"),
            Attributes::new().with("type", "compute"),
        )
        .unwrap();
        c.bind_with_attrs(
            &"top".into(),
            BoundValue::str("y"),
            Attributes::new().with("type", "compute"),
        )
        .unwrap();

        let f = Filter::parse("(type=compute)").unwrap();
        let one = c
            .search(
                &CompositeName::empty(),
                &f,
                &SearchControls {
                    scope: SearchScope::OneLevel,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(one.len(), 1, "one-level skips nested entries");

        let sub = c
            .search(
                &CompositeName::empty(),
                &f,
                &SearchControls {
                    scope: SearchScope::Subtree,
                    ..Default::default()
                },
            )
            .unwrap();
        let mut names: Vec<String> = sub.into_iter().map(|s| s.name).collect();
        names.sort();
        assert_eq!(names, vec!["dept/host1", "top"]);
    }

    #[test]
    fn search_respects_count_limit_and_projection() {
        let c = ctx();
        for i in 0..10 {
            c.bind_with_attrs(
                &CompositeName::from_components([format!("e{i}")]),
                BoundValue::Null,
                Attributes::new().with("kind", "x").with("extra", "y"),
            )
            .unwrap();
        }
        let f = Filter::parse("(kind=x)").unwrap();
        let hits = c
            .search(
                &CompositeName::empty(),
                &f,
                &SearchControls {
                    count_limit: 3,
                    return_attrs: Some(vec!["kind".into()]),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(hits.len(), 3);
        assert!(hits
            .iter()
            .all(|h| h.attrs.contains("kind") && !h.attrs.contains("extra")));
    }

    #[test]
    fn modify_attributes_applies_mods() {
        let c = ctx();
        c.bind_with_attrs(
            &"e".into(),
            BoundValue::Null,
            Attributes::new().with("state", "up"),
        )
        .unwrap();
        c.modify_attributes(
            &"e".into(),
            &[
                AttrMod::Replace(crate::attrs::Attribute::single("state", "down")),
                AttrMod::Add(crate::attrs::Attribute::single("note", "maintenance")),
            ],
        )
        .unwrap();
        let attrs = c.get_attributes(&"e".into()).unwrap();
        assert_eq!(attrs.get("state").unwrap().first_str(), Some("down"));
        assert_eq!(attrs.get("note").unwrap().first_str(), Some("maintenance"));
    }

    #[test]
    fn federation_mount_returns_continue() {
        let c = ctx();
        c.bind_str("remote", "").unwrap();
        c.rebind(
            &"remote".into(),
            BoundValue::Reference(Reference::url("jini://host1")),
        )
        .unwrap();
        let err = c.lookup_str("remote/service/x").unwrap_err();
        match err {
            NamingError::Continue {
                resolved,
                remaining,
            } => {
                assert_eq!(
                    resolved.as_reference().unwrap().url_addr(),
                    Some("jini://host1")
                );
                assert_eq!(remaining.to_string(), "service/x");
            }
            other => panic!("expected Continue, got {other:?}"),
        }
        // Looking up the mount itself returns the reference, not Continue.
        assert!(c.lookup_str("remote").unwrap().as_reference().is_some());
    }

    #[test]
    fn bound_live_context_is_traversed_via_continue() {
        let parent = ctx();
        let foreign = ctx();
        foreign.bind_str("inside", "gold").unwrap();
        parent
            .bind(
                &"mount".into(),
                BoundValue::Context(Arc::new(foreign.clone())),
            )
            .unwrap();
        let err = parent.lookup_str("mount/inside").unwrap_err();
        assert!(err.is_continue());
    }

    #[test]
    fn events_fire_for_mutations() {
        let c = ctx();
        let l = CollectingListener::new();
        c.add_listener(&CompositeName::empty(), l.clone()).unwrap();
        c.bind_str("a", "1").unwrap();
        c.rebind_str("a", "2").unwrap();
        c.unbind_str("a").unwrap();
        let evs = l.drain();
        use crate::event::EventType::*;
        let kinds: Vec<_> = evs.iter().map(|e| e.event_type).collect();
        assert_eq!(kinds, vec![ObjectAdded, ObjectChanged, ObjectRemoved]);
    }

    #[test]
    fn scoped_listener_sees_only_its_subtree() {
        let c = ctx();
        c.create_subcontext(&"a".into()).unwrap();
        c.create_subcontext(&"b".into()).unwrap();
        let l = CollectingListener::new();
        c.add_listener(&"a".into(), l.clone()).unwrap();
        c.bind_str("a/x", "1").unwrap();
        c.bind_str("b/y", "2").unwrap();
        assert_eq!(l.count(), 1);
    }

    #[test]
    fn empty_name_lookup_returns_self_context() {
        let c = ctx();
        c.bind_str("x", "1").unwrap();
        let v = c.lookup(&CompositeName::empty()).unwrap();
        let as_ctx = v.as_context().unwrap();
        assert_eq!(as_ctx.lookup_str("x").unwrap().as_str(), Some("1"));
    }

    #[test]
    fn mem_factory_serves_and_autocreates_hosts() {
        use crate::env::Environment;
        use crate::spi::UrlContextFactory;
        use crate::url::RndiUrl;
        let f = MemFactory::new();
        assert_eq!(f.scheme(), "mem");
        let url = RndiUrl::parse("mem://scratch").unwrap();
        let c1 = f.create(&url, &Environment::new()).unwrap();
        c1.bind(&"k".into(), BoundValue::str("v")).unwrap();
        // Same host resolves to the same root.
        let c2 = f.create(&url, &Environment::new()).unwrap();
        assert_eq!(c2.lookup(&"k".into()).unwrap().as_str(), Some("v"));
        // Registered hosts are reachable directly.
        assert!(f.host("scratch").is_some());
        assert!(f.host("other").is_none());
        let custom = MemFactory::with_scheme("JINI");
        assert_eq!(custom.scheme(), "jini");
    }

    #[test]
    fn destroy_subcontext_semantics() {
        let c = ctx();
        c.create_subcontext(&"s".into()).unwrap();
        c.bind_str("s/k", "v").unwrap();
        assert!(matches!(
            c.destroy_subcontext(&"s".into()),
            Err(NamingError::ContextNotEmpty { .. })
        ));
        c.unbind_str("s/k").unwrap();
        c.destroy_subcontext(&"s".into()).unwrap();
        c.destroy_subcontext(&"s".into()).unwrap(); // idempotent
        c.bind_str("leaf", "v").unwrap();
        assert!(matches!(
            c.destroy_subcontext(&"leaf".into()),
            Err(NamingError::ContextExpected { .. })
        ));
    }
}
