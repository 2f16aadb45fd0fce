//! The filesystem service provider.
//!
//! JNDI ships a provider that exposes the local filesystem as a naming
//! service; the paper lists "a local filesystem storage" among the systems
//! its federation can incorporate. Mapping: a subcontext is a directory; a
//! binding `x` is a file `x.val` holding the marshalled value, with an
//! optional sibling `x.attrs` holding the attribute set as JSON.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use rndi_core::attrs::{AttrMod, Attributes};
use rndi_core::context::{
    Binding, DirContext, NameClassPair, SearchControls, SearchItem, SearchScope,
};
use rndi_core::env::Environment;
use rndi_core::error::{NamingError, Result};
use rndi_core::filter::Filter;
use rndi_core::name::CompositeName;
use rndi_core::op::{NamingOp, OpKind, OpOutcome};
use rndi_core::spi::boundary::{self, Bound};
use rndi_core::spi::{ProviderBackend, ProviderPipeline, UrlContextFactory, WireFormat};
use rndi_core::url::RndiUrl;
use rndi_core::value::BoundValue;

use crate::common;

const VAL_EXT: &str = "val";
const ATTR_EXT: &str = "attrs";

fn io_err(e: std::io::Error, what: &str) -> NamingError {
    NamingError::service(format!("filesystem provider: {what}: {e}"))
}

/// Remove a file that may already be gone: "not there" is the state the
/// caller wants, every other failure leaves the file behind and is reported.
fn remove_if_present(path: &Path, what: &str) -> Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err(e, what)),
        _ => Ok(()),
    }
}

/// `[read, write]` byte counters for value payloads, resolved once per
/// process.
fn io_counters() -> &'static [Arc<rndi_obs::Counter>; 2] {
    static COUNTERS: std::sync::OnceLock<[Arc<rndi_obs::Counter>; 2]> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let name = rndi_obs::metrics::names::IO_BYTES;
        ["read", "write"]
            .map(|dir| rndi_obs::metrics::counter(name, &[("provider", "fs"), ("dir", dir)]))
    })
}

/// Read a value file, tallying the bytes moved.
fn read_val_file(path: &Path) -> std::io::Result<Vec<u8>> {
    let bytes = std::fs::read(path)?;
    io_counters()[0].add(bytes.len() as u64);
    Ok(bytes)
}

/// A naming backend rooted at a directory. Implements [`ProviderBackend`];
/// the `Context`/`DirContext` surface comes from the [`ProviderPipeline`]
/// returned by [`FsContext::new`].
pub struct FsContext {
    root: PathBuf,
    /// Serializes multi-step operations (bind = probe + write).
    lock: Mutex<()>,
}

impl FsContext {
    pub fn new(root: impl Into<PathBuf>) -> Arc<ProviderPipeline<Self>> {
        Self::with_env(root, &Environment::new())
    }

    /// Construct with an environment controlling the pipeline stack.
    pub fn with_env(root: impl Into<PathBuf>, env: &Environment) -> Arc<ProviderPipeline<Self>> {
        ProviderPipeline::standard(
            Arc::new(FsContext {
                root: root.into(),
                lock: Mutex::new(()),
            }),
            env,
        )
    }

    /// Validate a component: no path tricks.
    fn check_component(c: &str) -> Result<&str> {
        if c.is_empty()
            || c == "."
            || c == ".."
            || c.contains('/')
            || c.contains('\\')
            || c.contains('\0')
        {
            return Err(NamingError::invalid_name(c, "illegal path component"));
        }
        Ok(c)
    }

    /// Resolve the directory holding the final component.
    fn parent_dir(&self, name: &CompositeName) -> Result<(PathBuf, String)> {
        let Some((leaf, parents)) = name.components().split_last() else {
            return Err(NamingError::invalid_name("", "empty name"));
        };
        let mut dir = self.root.clone();
        for (i, c) in parents.iter().enumerate() {
            let sub = dir.join(Self::check_component(c)?);
            if !sub.is_dir() {
                let upto_here = name.prefix(i + 1).to_string();
                return Err(if Self::val_path(&dir, c).is_file() {
                    NamingError::NotAContext { name: upto_here }
                } else {
                    NamingError::not_found(upto_here)
                });
            }
            dir = sub;
        }
        Ok((dir, Self::check_component(leaf)?.to_string()))
    }

    /// Answers the federation probe with the same directory walk: the
    /// deepest directory among the first `upto` components, or the `.val`
    /// file that ends the walk.
    fn bound_prefix(&self, name: &CompositeName, upto: usize) -> Result<Option<Bound>> {
        let mut dir = self.root.clone();
        for (i, c) in name.components()[..upto].iter().enumerate() {
            let sub = dir.join(Self::check_component(c)?);
            if !sub.is_dir() {
                let val = Self::val_path(&dir, c);
                return Ok(if val.is_file() {
                    let bytes = read_val_file(&val).map_err(|e| io_err(e, "read"))?;
                    Some(Bound::leaf(i + 1, common::unmarshal(&bytes)))
                } else {
                    (i > 0).then(|| Bound::context(i))
                });
            }
            dir = sub;
        }
        Ok((upto > 0).then(|| Bound::context(upto)))
    }

    fn val_path(dir: &Path, leaf: &str) -> PathBuf {
        dir.join(format!("{leaf}.{VAL_EXT}"))
    }

    fn attr_path(dir: &Path, leaf: &str) -> PathBuf {
        dir.join(format!("{leaf}.{ATTR_EXT}"))
    }

    /// Missing attribute files mean "no attributes"; present-but-corrupt
    /// files are an error (see [`common::attrs_from_json`]).
    fn read_attrs(dir: &Path, leaf: &str) -> Result<Attributes> {
        match std::fs::read_to_string(Self::attr_path(dir, leaf)) {
            Ok(s) => common::attrs_from_json(&s),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Attributes::new()),
            Err(e) => Err(io_err(e, "read attrs")),
        }
    }

    fn write_attrs(dir: &Path, leaf: &str, attrs: &Attributes) -> Result<()> {
        if attrs.is_empty() {
            return remove_if_present(&Self::attr_path(dir, leaf), "remove attrs");
        }
        std::fs::write(Self::attr_path(dir, leaf), common::attrs_to_json(attrs)?)
            .map_err(|e| io_err(e, "write attrs"))
    }

    fn do_bind(
        &self,
        name: &CompositeName,
        bytes: &[u8],
        attrs: Attributes,
        overwrite: bool,
    ) -> Result<()> {
        let (dir, leaf) = self.parent_dir(name)?;
        let _guard = self.lock.lock();
        let val = Self::val_path(&dir, &leaf);
        if !overwrite && (val.exists() || dir.join(&leaf).is_dir()) {
            return Err(NamingError::already_bound(name.to_string()));
        }
        if dir.join(&leaf).is_dir() {
            return Err(NamingError::already_bound(format!("{name} (a subcontext)")));
        }
        std::fs::create_dir_all(&dir).map_err(|e| io_err(e, "mkdir"))?;
        std::fs::write(&val, bytes).map_err(|e| io_err(e, "write"))?;
        io_counters()[1].add(bytes.len() as u64);
        Self::write_attrs(&dir, &leaf, &attrs)
    }

    fn dir_of(&self, name: &CompositeName) -> Result<PathBuf> {
        if name.is_empty() {
            return Ok(self.root.clone());
        }
        let (dir, leaf) = self.parent_dir(name)?;
        let sub = dir.join(&leaf);
        if sub.is_dir() {
            Ok(sub)
        } else if Self::val_path(&dir, &leaf).exists() {
            Err(NamingError::ContextExpected {
                name: name.to_string(),
            })
        } else {
            Err(NamingError::not_found(name.to_string()))
        }
    }

    fn entries_in(&self, dir: &Path) -> Result<Vec<(String, EntryKind)>> {
        let mut out = Vec::new();
        let rd = match std::fs::read_dir(dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(io_err(e, "readdir")),
        };
        for entry in rd {
            let entry = entry.map_err(|e| io_err(e, "readdir"))?;
            let file_name = entry.file_name().to_string_lossy().to_string();
            let path = entry.path();
            if path.is_dir() {
                out.push((file_name, EntryKind::Dir));
            } else if let Some(stem) = file_name.strip_suffix(&format!(".{VAL_EXT}")) {
                out.push((stem.to_string(), EntryKind::Value));
            }
        }
        out.sort();
        Ok(out)
    }

    fn search_dir(
        &self,
        dir: &Path,
        rel: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
        out: &mut Vec<SearchItem>,
    ) -> Result<()> {
        for (child, kind) in self.entries_in(dir)? {
            if controls.count_limit > 0 && out.len() >= controls.count_limit {
                return Ok(());
            }
            let rel_name = rel.child(&child);
            let attrs = Self::read_attrs(dir, &child)?;
            if filter.matches(&attrs) {
                let attrs = match &controls.return_attrs {
                    Some(ids) => {
                        let ids: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
                        attrs.project(&ids)
                    }
                    None => attrs,
                };
                let value = if controls.return_values && kind == EntryKind::Value {
                    let bytes = read_val_file(&Self::val_path(dir, &child))
                        .map_err(|e| io_err(e, "read"))?;
                    Some(common::unmarshal(&bytes))
                } else {
                    None
                };
                out.push(SearchItem {
                    name: rel_name.to_string(),
                    value,
                    attrs,
                });
            }
            if controls.scope == SearchScope::Subtree && kind == EntryKind::Dir {
                self.search_dir(&dir.join(&child), &rel_name, filter, controls, out)?;
            }
        }
        Ok(())
    }
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum EntryKind {
    Dir,
    Value,
}

impl FsContext {
    fn lookup(&self, name: &CompositeName) -> Result<BoundValue> {
        if name.is_empty() {
            return Err(NamingError::invalid_name("", "empty name"));
        }
        let (dir, leaf) = self.parent_dir(name)?;
        let val = Self::val_path(&dir, &leaf);
        if val.is_file() {
            let bytes = read_val_file(&val).map_err(|e| io_err(e, "read"))?;
            return Ok(common::unmarshal(&bytes));
        }
        if dir.join(&leaf).is_dir() {
            // Subcontexts are navigated by composite name; represent the
            // handle as a null placeholder like the HDNS provider.
            return Ok(BoundValue::Null);
        }
        Err(NamingError::not_found(name.to_string()))
    }

    fn unbind(&self, name: &CompositeName) -> Result<()> {
        let (dir, leaf) = self.parent_dir(name)?;
        let _guard = self.lock.lock();
        let sub = dir.join(&leaf);
        if sub.is_dir() {
            if std::fs::read_dir(&sub)
                .map(|mut d| d.next().is_some())
                .unwrap_or(false)
            {
                return Err(NamingError::ContextNotEmpty {
                    name: name.to_string(),
                });
            }
            std::fs::remove_dir(&sub).map_err(|e| io_err(e, "rmdir"))?;
            return Ok(());
        }
        remove_if_present(&Self::val_path(&dir, &leaf), "remove")?;
        remove_if_present(&Self::attr_path(&dir, &leaf), "remove attrs")
    }

    fn rename(&self, old: &CompositeName, new: &CompositeName) -> Result<()> {
        let (odir, oleaf) = self.parent_dir(old)?;
        let (ndir, nleaf) = self.parent_dir(new)?;
        let _guard = self.lock.lock();
        let oval = Self::val_path(&odir, &oleaf);
        let nval = Self::val_path(&ndir, &nleaf);
        if !oval.is_file() {
            return Err(NamingError::not_found(old.to_string()));
        }
        if nval.exists() || ndir.join(&nleaf).is_dir() {
            return Err(NamingError::already_bound(new.to_string()));
        }
        std::fs::rename(&oval, &nval).map_err(|e| io_err(e, "rename"))?;
        let oattr = Self::attr_path(&odir, &oleaf);
        if oattr.is_file() {
            std::fs::rename(&oattr, Self::attr_path(&ndir, &nleaf))
                .map_err(|e| io_err(e, "rename attrs"))?;
        }
        Ok(())
    }

    fn list(&self, name: &CompositeName) -> Result<Vec<NameClassPair>> {
        let dir = self.dir_of(name)?;
        self.entries_in(&dir)?
            .into_iter()
            .map(|(child, kind)| {
                Ok(NameClassPair {
                    class_name: match kind {
                        EntryKind::Dir => "context".to_string(),
                        EntryKind::Value => {
                            let bytes = std::fs::read(Self::val_path(&dir, &child))
                                .map_err(|e| io_err(e, "read"))?;
                            common::unmarshal(&bytes).class_name().to_string()
                        }
                    },
                    name: child,
                })
            })
            .collect()
    }

    fn list_bindings(&self, name: &CompositeName) -> Result<Vec<Binding>> {
        let dir = self.dir_of(name)?;
        self.entries_in(&dir)?
            .into_iter()
            .map(|(child, kind)| {
                Ok(Binding {
                    value: match kind {
                        EntryKind::Dir => BoundValue::Null,
                        EntryKind::Value => {
                            let bytes = std::fs::read(Self::val_path(&dir, &child))
                                .map_err(|e| io_err(e, "read"))?;
                            common::unmarshal(&bytes)
                        }
                    },
                    name: child,
                })
            })
            .collect()
    }

    fn create_subcontext(&self, name: &CompositeName) -> Result<()> {
        let (dir, leaf) = self.parent_dir(name)?;
        let _guard = self.lock.lock();
        let sub = dir.join(&leaf);
        if sub.exists() || Self::val_path(&dir, &leaf).exists() {
            return Err(NamingError::already_bound(name.to_string()));
        }
        std::fs::create_dir_all(&sub).map_err(|e| io_err(e, "mkdir"))
    }

    fn destroy_subcontext(&self, name: &CompositeName) -> Result<()> {
        let (dir, leaf) = self.parent_dir(name)?;
        let sub = dir.join(&leaf);
        if !sub.exists() {
            return Ok(());
        }
        if !sub.is_dir() {
            return Err(NamingError::ContextExpected {
                name: name.to_string(),
            });
        }
        self.unbind(name)
    }

    fn get_attributes(&self, name: &CompositeName) -> Result<Attributes> {
        let (dir, leaf) = self.parent_dir(name)?;
        if !Self::val_path(&dir, &leaf).exists() && !dir.join(&leaf).is_dir() {
            return Err(NamingError::not_found(name.to_string()));
        }
        Self::read_attrs(&dir, &leaf)
    }

    fn modify_attributes(&self, name: &CompositeName, mods: &[AttrMod]) -> Result<()> {
        let (dir, leaf) = self.parent_dir(name)?;
        let _guard = self.lock.lock();
        if !Self::val_path(&dir, &leaf).exists() && !dir.join(&leaf).is_dir() {
            return Err(NamingError::not_found(name.to_string()));
        }
        let mut attrs = Self::read_attrs(&dir, &leaf)?;
        for m in mods {
            m.apply(&mut attrs);
        }
        Self::write_attrs(&dir, &leaf, &attrs)
    }

    fn search(
        &self,
        name: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
    ) -> Result<Vec<SearchItem>> {
        let dir = self.dir_of(name)?;
        let mut out = Vec::new();
        self.search_dir(&dir, &CompositeName::empty(), filter, controls, &mut out)?;
        Ok(out)
    }
}

impl ProviderBackend for FsContext {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        boundary::run(
            op,
            |upto| self.bound_prefix(&op.name, upto),
            || match op.kind {
                OpKind::Lookup => self.lookup(&op.name).map(OpOutcome::Value),
                OpKind::Bind | OpKind::BindWithAttrs | OpKind::Rebind | OpKind::RebindWithAttrs => {
                    let (bytes, _) = op.wire_value()?;
                    let attrs = op.attrs.clone().unwrap_or_default();
                    let overwrite = matches!(op.kind, OpKind::Rebind | OpKind::RebindWithAttrs);
                    self.do_bind(&op.name, &bytes, attrs, overwrite)
                        .map(|_| OpOutcome::Done)
                }
                OpKind::Unbind => self.unbind(&op.name).map(|_| OpOutcome::Done),
                OpKind::Rename => self
                    .rename(&op.name, op.new_name()?)
                    .map(|_| OpOutcome::Done),
                OpKind::List => self.list(&op.name).map(OpOutcome::Names),
                OpKind::ListBindings => self.list_bindings(&op.name).map(OpOutcome::Bindings),
                OpKind::CreateSubcontext => {
                    self.create_subcontext(&op.name).map(|_| OpOutcome::Done)
                }
                OpKind::DestroySubcontext => {
                    self.destroy_subcontext(&op.name).map(|_| OpOutcome::Done)
                }
                OpKind::GetAttributes => self.get_attributes(&op.name).map(OpOutcome::Attrs),
                OpKind::ModifyAttributes => self
                    .modify_attributes(&op.name, op.mods()?)
                    .map(|_| OpOutcome::Done),
                OpKind::Search => {
                    let (filter, controls) = op.query()?;
                    self.search(&op.name, filter, controls)
                        .map(OpOutcome::Found)
                }
                _ => Err(NamingError::unsupported(op.kind.label())),
            },
        )
    }

    fn provider_id(&self) -> String {
        format!("file:{}", self.root.display())
    }

    fn wire_format(&self) -> WireFormat {
        WireFormat::Encoded
    }
}

/// URL factory: `file://root/...`. Hosts map to directory roots; created
/// pipelines are cached per host so they share one stats/cache stack.
pub struct FsFactory {
    roots: Mutex<HashMap<String, PathBuf>>,
    contexts: Mutex<HashMap<String, Arc<ProviderPipeline<FsContext>>>>,
}

impl FsFactory {
    pub fn new() -> Arc<Self> {
        Arc::new(FsFactory {
            roots: Mutex::new(HashMap::new()),
            contexts: Mutex::new(HashMap::new()),
        })
    }

    pub fn register_root(&self, host: &str, root: impl Into<PathBuf>) {
        self.roots.lock().insert(host.to_string(), root.into());
        self.contexts.lock().remove(host);
    }
}

impl UrlContextFactory for FsFactory {
    fn scheme(&self) -> &str {
        "file"
    }

    fn create(&self, url: &RndiUrl, env: &Environment) -> Result<Arc<dyn DirContext>> {
        if let Some(pipeline) = self.contexts.lock().get(&url.host) {
            return Ok(pipeline.clone());
        }
        let root = self.roots.lock().get(&url.host).cloned().ok_or_else(|| {
            NamingError::service(format!("no filesystem root registered for {}", url.host))
        })?;
        let pipeline = FsContext::with_env(root, env);
        self.contexts
            .lock()
            .insert(url.host.clone(), pipeline.clone());
        Ok(pipeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rndi_core::context::{Context, ContextExt, DirContext};
    use rndi_core::value::Reference;

    fn fresh_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rndi-fs-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn bind_lookup_roundtrip() {
        let root = fresh_root("roundtrip");
        let ctx = FsContext::new(&root);
        ctx.bind_str("config", "value-1").unwrap();
        assert_eq!(ctx.lookup_str("config").unwrap().as_str(), Some("value-1"));
        assert!(root.join("config.val").is_file());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn atomic_bind_and_rebind() {
        let root = fresh_root("atomic");
        let ctx = FsContext::new(&root);
        ctx.bind_str("k", "1").unwrap();
        assert!(matches!(
            ctx.bind_str("k", "2"),
            Err(NamingError::AlreadyBound { .. })
        ));
        ctx.rebind_str("k", "2").unwrap();
        assert_eq!(ctx.lookup_str("k").unwrap().as_str(), Some("2"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn subcontexts_are_directories() {
        let root = fresh_root("dirs");
        let ctx = FsContext::new(&root);
        ctx.create_subcontext(&"sub".into()).unwrap();
        ctx.bind_str("sub/inner", "deep").unwrap();
        assert!(root.join("sub").is_dir());
        assert_eq!(ctx.lookup_str("sub/inner").unwrap().as_str(), Some("deep"));
        let names: Vec<String> = ctx
            .list_str("sub")
            .unwrap()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, vec!["inner"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unbind_and_destroy_semantics() {
        let root = fresh_root("unbind");
        let ctx = FsContext::new(&root);
        ctx.create_subcontext(&"s".into()).unwrap();
        ctx.bind_str("s/x", "v").unwrap();
        assert!(matches!(
            ctx.unbind_str("s"),
            Err(NamingError::ContextNotEmpty { .. })
        ));
        ctx.unbind_str("s/x").unwrap();
        ctx.unbind_str("s/x").unwrap(); // idempotent
        ctx.destroy_subcontext(&"s".into()).unwrap();
        assert!(!root.join("s").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A directory where the `.attrs` file belongs makes every I/O call on
    /// it fail with something other than "not found" — as root too, where
    /// permission bits would not.
    #[test]
    fn io_errors_other_than_not_found_are_reported() {
        let root = fresh_root("ioerr");
        let ctx = FsContext::new(&root);
        ctx.bind_str("n", "v").unwrap();
        std::fs::create_dir(root.join("n.attrs")).unwrap();

        let service_failure = |r: Result<()>| matches!(r, Err(NamingError::ServiceFailure { .. }));
        // The stale attributes cannot be cleared: not a success.
        assert!(service_failure(ctx.rebind_str("n", "v2")));
        // Unreadable attributes are not "no attributes".
        assert!(service_failure(ctx.get_attributes(&"n".into()).map(|_| ())));
        // The binding's second file survives the unbind: not acknowledged.
        assert!(service_failure(ctx.unbind_str("n")));

        std::fs::remove_dir(root.join("n.attrs")).unwrap();
        ctx.rebind_str("n", "v3").unwrap();
        assert!(ctx.get_attributes(&"n".into()).unwrap().is_empty());
        ctx.unbind_str("n").unwrap();
        ctx.unbind_str("n").unwrap(); // still idempotent
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn attributes_persist_and_search() {
        let root = fresh_root("attrs");
        let ctx = FsContext::new(&root);
        ctx.bind_with_attrs(
            &"n1".into(),
            BoundValue::str("s"),
            common::attrs(&[("os", "linux")]),
        )
        .unwrap();
        ctx.bind_with_attrs(
            &"n2".into(),
            BoundValue::str("s"),
            common::attrs(&[("os", "plan9")]),
        )
        .unwrap();
        let hits = ctx
            .search(
                &CompositeName::empty(),
                &Filter::parse("(os=linux)").unwrap(),
                &SearchControls::default(),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "n1");

        ctx.modify_attributes(
            &"n2".into(),
            &[AttrMod::Replace(rndi_core::attrs::Attribute::single(
                "os", "linux",
            ))],
        )
        .unwrap();
        let hits = ctx
            .search(
                &CompositeName::empty(),
                &Filter::parse("(os=linux)").unwrap(),
                &SearchControls::default(),
            )
            .unwrap();
        assert_eq!(hits.len(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn federation_mount_in_file() {
        let root = fresh_root("mount");
        let ctx = FsContext::new(&root);
        ctx.bind(
            &"remote".into(),
            BoundValue::Reference(Reference::url("hdns://host2")),
        )
        .unwrap();
        let err = ctx.lookup(&"remote/x".into()).unwrap_err();
        assert!(err.is_continue());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn path_escape_rejected() {
        let root = fresh_root("escape");
        let ctx = FsContext::new(&root);
        for bad in ["..", ".", "a\\b"] {
            let name = CompositeName::from_components([bad.to_string()]);
            assert!(
                matches!(ctx.lookup(&name), Err(NamingError::InvalidName { .. })),
                "should reject {bad:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rename_moves_value_and_attrs() {
        let root = fresh_root("rename");
        let ctx = FsContext::new(&root);
        ctx.bind_with_attrs(
            &"a".into(),
            BoundValue::str("v"),
            common::attrs(&[("k", "1")]),
        )
        .unwrap();
        ctx.rename(&"a".into(), &"b".into()).unwrap();
        assert!(ctx.lookup_str("a").is_err());
        assert_eq!(ctx.lookup_str("b").unwrap().as_str(), Some("v"));
        assert_eq!(
            ctx.get_attributes(&"b".into())
                .unwrap()
                .get("k")
                .unwrap()
                .first_str(),
            Some("1")
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
