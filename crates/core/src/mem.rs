//! The in-memory naming service, and the model the other providers answer to.
//!
//! `MemContext` keeps the whole [`DirContext`] conformance level in memory:
//! hierarchical namespace, atomic bind, attributes, search, events, rename.
//! It is a [`ProviderBackend`] like every other provider, and opts in to the
//! client surface with [`OpContext`] as a pipeline does. It doubles as a
//! lightweight local naming service.
//!
//! Federation: a bound value that is a live context or a URL reference acts
//! as a mount point — resolution that must pass *through* it returns
//! [`NamingError::Continue`] for the federation driver to handle. The model
//! walks names itself instead of through [`crate::spi::boundary`], so that
//! the providers' federation can be checked against something independent.
//!
//! No node of the tree stores its name: an absolute name (for an event, an
//! error, a listener's scope) is the path walked from the handle an
//! operation started at, so renaming a subcontext takes its whole subtree
//! along. A handle to a subcontext — what `lookup` returns for one —
//! remembers the path it was reached by.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::attrs::{AttrMod, Attributes};
use crate::context::{Binding, DirContext, NameClassPair, OpContext};
use crate::error::{NamingError, Result};
use crate::event::EventHub;
use crate::name::CompositeName;
use crate::op::{NamingOp, OpKind, OpOutcome};
use crate::spi::search;
use crate::spi::ProviderBackend;
use crate::value::BoundValue;

struct Entry {
    attrs: Attributes,
    node: Node,
}

#[derive(Clone)]
enum Node {
    Leaf(BoundValue),
    Sub(Arc<Dir>),
}

#[derive(Default)]
struct Dir {
    entries: RwLock<BTreeMap<String, Entry>>,
}

/// A cheaply cloneable handle on an in-memory directory context.
#[derive(Clone)]
pub struct MemContext {
    dir: Arc<Dir>,
    hub: Arc<EventHub>,
    /// The path this handle was reached by from its tree's root.
    path: CompositeName,
}

impl Default for MemContext {
    fn default() -> Self {
        Self::new()
    }
}

fn done(_: ()) -> OpOutcome {
    OpOutcome::Done
}

impl MemContext {
    /// Create an empty root context.
    pub fn new() -> Self {
        MemContext {
            dir: Arc::default(),
            hub: Arc::new(EventHub::new()),
            path: CompositeName::empty(),
        }
    }

    /// A handle on `dir`, bound under `component` here.
    fn sub(&self, component: &str, dir: Arc<Dir>) -> MemContext {
        MemContext {
            dir,
            hub: self.hub.clone(),
            path: self.abs(component),
        }
    }

    fn abs(&self, component: &str) -> CompositeName {
        self.path.child(component)
    }

    /// Walk the first `upto` components of `name` from here to the context
    /// they reach. A federation link on the way continues with the rest of
    /// the name; a plain leaf is reported by `leaf`.
    fn walk(
        &self,
        name: &CompositeName,
        upto: usize,
        leaf: fn(String) -> NamingError,
    ) -> Result<MemContext> {
        let mut ctx = self.clone();
        for (i, component) in name.iter().take(upto).enumerate() {
            let node = ctx
                .dir
                .entries
                .read()
                .get(component)
                .map(|e| e.node.clone());
            ctx = match node {
                Some(Node::Sub(dir)) => ctx.sub(component, dir),
                Some(Node::Leaf(value)) if value.is_federation_link() => {
                    return Err(NamingError::Continue {
                        resolved: value,
                        remaining: name.suffix(i + 1),
                        holds: None,
                    })
                }
                Some(Node::Leaf(_)) => return Err(leaf(ctx.abs(component).to_string())),
                None => return Err(NamingError::not_found(ctx.abs(component).to_string())),
            };
        }
        Ok(ctx)
    }

    /// The context holding the last component of `name`, and that component.
    fn parent<'n>(&self, name: &'n CompositeName) -> Result<(MemContext, &'n str)> {
        let last = name
            .iter()
            .next_back()
            .ok_or_else(|| NamingError::invalid_name("", "empty name"))?;
        let ctx = self.walk(name, name.len() - 1, |name| NamingError::NotAContext {
            name,
        })?;
        Ok((ctx, last))
    }

    /// The context `name` denotes (the empty name: this one).
    fn context(&self, name: &CompositeName) -> Result<MemContext> {
        self.walk(name, name.len(), |name| NamingError::ContextExpected {
            name,
        })
    }

    /// The value an entry stands for: a subcontext as a handle on it.
    fn value_of(&self, component: &str, entry: &Entry) -> BoundValue {
        match &entry.node {
            Node::Leaf(v) => v.clone(),
            Node::Sub(dir) => BoundValue::Context(Arc::new(self.sub(component, dir.clone()))),
        }
    }

    fn get(&self, name: &CompositeName) -> Result<BoundValue> {
        if name.is_empty() {
            return Ok(BoundValue::Context(Arc::new(self.clone())));
        }
        let (ctx, last) = self.parent(name)?;
        let entries = ctx.dir.entries.read();
        let entry = entries
            .get(last)
            .ok_or_else(|| NamingError::not_found(ctx.abs(last).to_string()))?;
        Ok(ctx.value_of(last, entry))
    }

    fn put(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
        overwrite: bool,
    ) -> Result<()> {
        let (ctx, last) = self.parent(name)?;
        let mut entries = ctx.dir.entries.write();
        let existed = entries.get(last).map(|e| ctx.value_of(last, e));
        if existed.is_some() && !overwrite {
            return Err(NamingError::already_bound(ctx.abs(last).to_string()));
        }
        entries.insert(
            last.to_string(),
            Entry {
                attrs,
                node: Node::Leaf(value.clone()),
            },
        );
        drop(entries);
        match existed {
            Some(old) => ctx.hub.fire_changed(ctx.abs(last), Some(old), value),
            None => ctx.hub.fire_added(ctx.abs(last), value),
        }
        Ok(())
    }

    fn remove(&self, name: &CompositeName) -> Result<()> {
        let (ctx, last) = self.parent(name)?;
        let mut entries = ctx.dir.entries.write();
        if let Some(Node::Sub(dir)) = entries.get(last).map(|e| &e.node) {
            if !dir.entries.read().is_empty() {
                return Err(NamingError::ContextNotEmpty {
                    name: ctx.abs(last).to_string(),
                });
            }
        }
        // Unbinding an unbound name succeeds (JNDI semantics).
        if let Some(entry) = entries.remove(last) {
            drop(entries);
            let old = ctx.value_of(last, &entry);
            ctx.hub.fire_removed(ctx.abs(last), Some(old));
        }
        Ok(())
    }

    /// Move the entry at `old` to `new`, subtree and all. Both names are
    /// checked under the locks of the contexts that hold them, so nothing
    /// moves unless the whole rename can succeed.
    fn rename(&self, old: &CompositeName, new: &CompositeName) -> Result<()> {
        if new.len() > old.len() && new.starts_with(old) {
            return Err(NamingError::invalid_name(
                new.to_string(),
                "a context cannot move beneath itself",
            ));
        }
        let (from, old_last) = self.parent(old)?;
        let (to, new_last) = self.parent(new)?;
        let check = |src: &BTreeMap<String, Entry>, dst: &BTreeMap<String, Entry>| {
            if !src.contains_key(old_last) {
                return Err(NamingError::not_found(from.abs(old_last).to_string()));
            }
            if dst.contains_key(new_last) {
                return Err(NamingError::already_bound(to.abs(new_last).to_string()));
            }
            Ok(())
        };
        if Arc::ptr_eq(&from.dir, &to.dir) {
            let mut entries = from.dir.entries.write();
            check(&entries, &entries)?;
            let entry = entries.remove(old_last).expect("checked");
            entries.insert(new_last.to_string(), entry);
            return Ok(());
        }
        // Two contexts: lock them in address order, so two renames crossing
        // in opposite directions cannot deadlock.
        let (mut src, mut dst) = if Arc::as_ptr(&from.dir) < Arc::as_ptr(&to.dir) {
            let src = from.dir.entries.write();
            (src, to.dir.entries.write())
        } else {
            let dst = to.dir.entries.write();
            (from.dir.entries.write(), dst)
        };
        check(&src, &dst)?;
        let entry = src.remove(old_last).expect("checked");
        dst.insert(new_last.to_string(), entry);
        Ok(())
    }

    fn bindings(&self, name: &CompositeName) -> Result<Vec<Binding>> {
        let ctx = self.context(name)?;
        let entries = ctx.dir.entries.read();
        Ok(entries
            .iter()
            .map(|(n, e)| Binding {
                name: n.clone(),
                value: ctx.value_of(n, e),
            })
            .collect())
    }

    fn create(&self, name: &CompositeName) -> Result<()> {
        let (ctx, last) = self.parent(name)?;
        let mut entries = ctx.dir.entries.write();
        if entries.contains_key(last) {
            return Err(NamingError::already_bound(ctx.abs(last).to_string()));
        }
        let dir = Arc::<Dir>::default();
        entries.insert(
            last.to_string(),
            Entry {
                attrs: Attributes::new(),
                node: Node::Sub(dir.clone()),
            },
        );
        drop(entries);
        let handle = BoundValue::Context(Arc::new(ctx.sub(last, dir)));
        ctx.hub.fire_added(ctx.abs(last), handle);
        Ok(())
    }

    fn destroy(&self, name: &CompositeName) -> Result<()> {
        let (ctx, last) = self.parent(name)?;
        let mut entries = ctx.dir.entries.write();
        match entries.get(last).map(|e| &e.node) {
            None => Ok(()), // destroying a non-existent context succeeds
            Some(Node::Sub(dir)) => {
                if !dir.entries.read().is_empty() {
                    return Err(NamingError::ContextNotEmpty {
                        name: ctx.abs(last).to_string(),
                    });
                }
                entries.remove(last);
                drop(entries);
                ctx.hub.fire_removed(ctx.abs(last), None);
                Ok(())
            }
            Some(Node::Leaf(_)) => Err(NamingError::ContextExpected {
                name: ctx.abs(last).to_string(),
            }),
        }
    }

    fn attributes(&self, name: &CompositeName) -> Result<Attributes> {
        if name.is_empty() {
            return Ok(Attributes::new());
        }
        let (ctx, last) = self.parent(name)?;
        let entries = ctx.dir.entries.read();
        entries
            .get(last)
            .map(|e| e.attrs.clone())
            .ok_or_else(|| NamingError::not_found(ctx.abs(last).to_string()))
    }

    fn modify(&self, name: &CompositeName, mods: &[AttrMod]) -> Result<()> {
        let (ctx, last) = self.parent(name)?;
        let mut entries = ctx.dir.entries.write();
        let entry = entries
            .get_mut(last)
            .ok_or_else(|| NamingError::not_found(ctx.abs(last).to_string()))?;
        for m in mods {
            m.apply(&mut entry.attrs);
        }
        Ok(())
    }
}

impl ProviderBackend for MemContext {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        let name = &op.name;
        match op.kind {
            OpKind::Lookup => self.get(name).map(OpOutcome::Value),
            OpKind::Bind | OpKind::BindWithAttrs | OpKind::Rebind | OpKind::RebindWithAttrs => {
                let overwrite = matches!(op.kind, OpKind::Rebind | OpKind::RebindWithAttrs);
                let attrs = op.attrs.clone().unwrap_or_default();
                self.put(name, op.value()?, attrs, overwrite).map(done)
            }
            OpKind::Unbind => self.remove(name).map(done),
            OpKind::Rename => self.rename(name, op.new_name()?).map(done),
            OpKind::List => Ok(OpOutcome::Names(
                self.bindings(name)?
                    .into_iter()
                    .map(|b| NameClassPair {
                        class_name: b.value.class_name().to_string(),
                        name: b.name,
                    })
                    .collect(),
            )),
            OpKind::ListBindings => self.bindings(name).map(OpOutcome::Bindings),
            OpKind::CreateSubcontext => self.create(name).map(done),
            OpKind::DestroySubcontext => self.destroy(name).map(done),
            OpKind::GetAttributes => self.attributes(name).map(OpOutcome::Attrs),
            OpKind::ModifyAttributes => self.modify(name, op.mods()?).map(done),
            OpKind::Search => {
                // A search of a mount searches the system behind it, as a
                // listing does, whatever its scope.
                if let Err(e @ NamingError::Continue { .. }) = self.context(name) {
                    return Err(e);
                }
                search::walk(self, op)
            }
            OpKind::AddListener => Ok(OpOutcome::Subscribed(
                self.hub.subscribe(self.path.join(name), op.listener()?),
            )),
            OpKind::RemoveListener => {
                self.hub.unsubscribe(op.listener_handle()?);
                Ok(OpOutcome::Done)
            }
        }
    }

    fn provider_id(&self) -> String {
        format!("mem:{}", self.path)
    }
}

impl OpContext for MemContext {}

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
    use crate::context::{Context, ContextExt, SearchControls, SearchScope};
    use crate::event::CollectingListener;
    use crate::filter::Filter;
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
    fn a_renamed_subcontext_takes_its_subtree_along() {
        let c = ctx();
        c.create_subcontext(&"dir".into()).unwrap();
        c.bind_str("dir/x", "1").unwrap();
        c.rename(&"dir".into(), &"dir2".into()).unwrap();
        assert_eq!(c.lookup_str("dir2/x").unwrap().as_str(), Some("1"));

        let l = CollectingListener::new();
        c.add_listener(&"dir2".into(), l.clone()).unwrap();
        c.unbind_str("dir2/x").unwrap();
        c.bind_str("dir2/x", "2").unwrap();
        let heard: Vec<String> = l.drain().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(heard, ["dir2/x", "dir2/x"], "events name the new place");
        match c.bind_str("dir2/x", "3") {
            Err(NamingError::AlreadyBound { name }) => assert_eq!(name, "dir2/x"),
            other => panic!("expected AlreadyBound, got {other:?}"),
        }

        // Nothing moves beneath itself, and a refused rename moves nothing.
        assert!(matches!(
            c.rename(&"dir2".into(), &"dir2/inner".into()),
            Err(NamingError::InvalidName { .. })
        ));
        c.bind_str("taken", "t").unwrap();
        assert!(matches!(
            c.rename(&"dir2".into(), &"taken".into()),
            Err(NamingError::AlreadyBound { .. })
        ));
        assert!(matches!(
            c.rename(&"gone".into(), &"dir2/y".into()),
            Err(NamingError::NameNotFound { .. })
        ));
        assert_eq!(c.lookup_str("dir2/x").unwrap().as_str(), Some("2"));
        assert_eq!(c.lookup_str("taken").unwrap().as_str(), Some("t"));
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
    fn search_scopes_have_one_meaning() {
        let c = ctx();
        let tagged = || Attributes::new().with("kind", "leaf");
        c.create_subcontext(&"dir".into()).unwrap();
        c.bind_with_attrs(&"dir/x".into(), BoundValue::str("x"), tagged())
            .unwrap();
        c.bind_with_attrs(&"y".into(), BoundValue::str("y"), tagged())
            .unwrap();
        // A mounted foreign context is the federation layer's to search.
        let far = ctx();
        far.bind_with_attrs(&"z".into(), BoundValue::Null, tagged())
            .unwrap();
        c.bind(&"mnt".into(), BoundValue::Context(Arc::new(far)))
            .unwrap();

        let kind = Filter::parse("(kind=*)").unwrap();
        let search = |name: &str, scope| {
            let controls = SearchControls {
                scope,
                return_values: true,
                ..Default::default()
            };
            c.search(&name.into(), &kind, &controls)
        };
        let names = |name: &str, scope| -> Vec<String> {
            let hits = search(name, scope).unwrap();
            hits.into_iter().map(|h| h.name).collect()
        };
        let y = search("y", SearchScope::Object).unwrap();
        assert_eq!((y.len(), y[0].name.as_str()), (1, ""), "the entry itself");
        assert_eq!(y[0].value, Some(BoundValue::str("y")));
        assert!(
            names("dir", SearchScope::Object).is_empty(),
            "never a child"
        );
        assert!(
            names("", SearchScope::Object).is_empty(),
            "the root is no entry"
        );
        assert_eq!(names("dir", SearchScope::OneLevel), ["x"]);
        assert_eq!(names("", SearchScope::Subtree), ["dir/x", "y"]);
        assert!(search("mnt", SearchScope::Object)
            .unwrap_err()
            .is_continue());
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
                ..
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
