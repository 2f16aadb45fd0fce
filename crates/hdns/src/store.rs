//! The replicated store: hierarchical entries + deterministic operations,
//! and its snapshot (state transfer + the snapshot file), over
//! [`groupcast::codec`], entries in key order, fields as in a proposal's Bind:
//! `0x02 | ops_applied u64 | count u32 | (path | flags | value | attrs)*`.

use std::collections::BTreeMap;

use groupcast::codec::{self, DecodeError, Reader, U32_LEN, U64_LEN, U8_LEN};
use serde::{Deserialize, Serialize};

use crate::proposal::{entry, put_entry, JSON_OPEN};

/// The snapshot format's version byte (a proposal's is `0x01`).
const SNAPSHOT_VERSION: u8 = 0x02;
/// The fewest bytes one entry encodes to: path, flags, value, attrs, all empty.
const MIN_ENTRY_LEN: usize = U32_LEN + U8_LEN + U32_LEN + U32_LEN;

/// An entry in the naming service.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HdnsEntry {
    /// Marshalled bound value (opaque to HDNS).
    pub value: Vec<u8>,
    /// String attributes (HDNS keeps its attribute model simple; richer
    /// typing lives in the client layers).
    pub attrs: BTreeMap<String, String>,
    /// Whether this entry is a subcontext (may have children).
    pub is_context: bool,
}

impl HdnsEntry {
    pub fn leaf(value: Vec<u8>) -> HdnsEntry {
        HdnsEntry {
            value,
            attrs: BTreeMap::new(),
            is_context: false,
        }
    }

    pub fn context() -> HdnsEntry {
        HdnsEntry {
            value: Vec::new(),
            attrs: BTreeMap::new(),
            is_context: true,
        }
    }

    pub fn with_attr(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.attrs.insert(k.into(), v.into());
        self
    }
}

/// Store operation failures — deterministic across replicas.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HdnsError {
    AlreadyBound(String),
    NotFound(String),
    /// An intermediate path component is missing or not a context.
    NotAContext(String),
    /// Removing a context that still has children.
    NotEmpty(String),
    InvalidPath(String),
}

impl std::fmt::Display for HdnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HdnsError::AlreadyBound(p) => write!(f, "already bound: {p}"),
            HdnsError::NotFound(p) => write!(f, "not found: {p}"),
            HdnsError::NotAContext(p) => write!(f, "not a context: {p}"),
            HdnsError::NotEmpty(p) => write!(f, "context not empty: {p}"),
            HdnsError::InvalidPath(p) => write!(f, "invalid path: {p:?}"),
        }
    }
}

impl std::error::Error for HdnsError {}

/// A write operation, multicast to the group and applied deterministically
/// at every replica.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Bind an entry; `overwrite = false` gives atomic-bind semantics.
    Bind {
        path: String,
        entry: HdnsEntry,
        overwrite: bool,
    },
    Unbind {
        path: String,
    },
    Rename {
        from: String,
        to: String,
    },
    CreateContext {
        path: String,
    },
    /// Replace the attribute map of an existing entry.
    SetAttrs {
        path: String,
        attrs: BTreeMap<String, String>,
    },
}

/// Validate and normalize a path: non-empty `/`-separated segments.
fn normalize_path(path: &str) -> Result<String, HdnsError> {
    let p = path.trim_matches('/');
    if p.is_empty() {
        return Err(HdnsError::InvalidPath(path.to_string()));
    }
    if p.split('/').any(|s| s.is_empty()) {
        return Err(HdnsError::InvalidPath(path.to_string()));
    }
    Ok(p.to_string())
}

fn parent_of(path: &str) -> Option<&str> {
    path.rsplit_once('/').map(|(p, _)| p)
}

/// The replica-local store. A flat ordered map keyed by normalized path;
/// hierarchy is enforced on mutation (parents must be contexts).
#[derive(Clone, Debug, Default, Deserialize)]
pub struct HdnsStore {
    entries: BTreeMap<String, HdnsEntry>,
    /// Number of operations applied (replica convergence diagnostics).
    pub ops_applied: u64,
}

impl HdnsStore {
    pub fn new() -> Self {
        HdnsStore::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Read an entry (replica-local, no communication).
    pub fn get(&self, path: &str) -> Option<&HdnsEntry> {
        normalize_path(path).ok().and_then(|p| self.entries.get(&p))
    }

    /// Direct children of `prefix` (`""` = root).
    ///
    /// Non-root prefixes scan only the `"{prefix}/"` key range (the
    /// subtree is contiguous in the ordered map) instead of the whole
    /// store; the root has no such range in a flat path map, so it keeps
    /// the full iteration.
    pub fn list(&self, prefix: &str) -> Vec<(String, &HdnsEntry)> {
        let norm = prefix.trim_matches('/');
        if norm.is_empty() {
            return self
                .entries
                .iter()
                .filter(|(k, _)| !k.contains('/'))
                .map(|(k, v)| (k.clone(), v))
                .collect();
        }
        let depth = norm.matches('/').count() + 2;
        let range_prefix = format!("{norm}/");
        self.entries
            .range(range_prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&range_prefix))
            .filter(|(k, _)| k.matches('/').count() + 1 == depth)
            .map(|(k, v)| {
                let child = k.rsplit('/').next().expect("non-empty key").to_string();
                (child, v)
            })
            .collect()
    }

    fn check_parent(&self, path: &str) -> Result<(), HdnsError> {
        if let Some(parent) = parent_of(path) {
            match self.entries.get(parent) {
                Some(e) if e.is_context => Ok(()),
                Some(_) => Err(HdnsError::NotAContext(parent.to_string())),
                None => Err(HdnsError::NotFound(parent.to_string())),
            }
        } else {
            Ok(())
        }
    }

    fn has_children(&self, path: &str) -> bool {
        let prefix = format!("{path}/");
        self.entries
            .range(prefix.clone()..)
            .next()
            .is_some_and(|(k, _)| k.starts_with(&prefix))
    }

    /// The normalized key `path` may be bound under, or why it may not.
    fn bindable(&self, path: &str, overwrite: bool) -> Result<String, HdnsError> {
        let p = normalize_path(path)?;
        self.check_parent(&p)?;
        if !overwrite && self.entries.contains_key(&p) {
            return Err(HdnsError::AlreadyBound(p));
        }
        if let Some(existing) = self.entries.get(&p) {
            if existing.is_context && self.has_children(&p) {
                return Err(HdnsError::NotEmpty(p));
            }
        }
        Ok(p)
    }

    /// [`HdnsStore::apply`] for a caller that is done with the op: a bound
    /// entry moves into the store instead of being copied.
    pub fn apply_owned(&mut self, op: Op) -> Result<(), HdnsError> {
        match op {
            Op::Bind {
                path,
                entry,
                overwrite,
            } => {
                self.ops_applied += 1;
                let p = self.bindable(&path, overwrite)?;
                self.entries.insert(p, entry);
                Ok(())
            }
            other => self.apply(&other),
        }
    }

    /// Apply an operation. Deterministic: identical stores applying the
    /// same op yield identical results and identical new states.
    pub fn apply(&mut self, op: &Op) -> Result<(), HdnsError> {
        self.ops_applied += 1;
        match op {
            Op::Bind {
                path,
                entry,
                overwrite,
            } => {
                let p = self.bindable(path, *overwrite)?;
                self.entries.insert(p, entry.clone());
                Ok(())
            }
            Op::Unbind { path } => {
                let p = normalize_path(path)?;
                if self.has_children(&p) {
                    return Err(HdnsError::NotEmpty(p));
                }
                self.entries.remove(&p);
                Ok(())
            }
            Op::Rename { from, to } => {
                let f = normalize_path(from)?;
                let t = normalize_path(to)?;
                if self.has_children(&f) {
                    return Err(HdnsError::NotEmpty(f));
                }
                // Remove first, then validate the target — so renaming a
                // context *into its own subtree* (a → a/b) fails on the
                // missing parent instead of orphaning the entry.
                let entry = self
                    .entries
                    .remove(&f)
                    .ok_or_else(|| HdnsError::NotFound(f.clone()))?;
                let target_ok = if self.entries.contains_key(&t) {
                    Err(HdnsError::AlreadyBound(t.clone()))
                } else {
                    self.check_parent(&t)
                };
                match target_ok {
                    Ok(()) => {
                        self.entries.insert(t, entry);
                        Ok(())
                    }
                    Err(e) => {
                        self.entries.insert(f, entry);
                        Err(e)
                    }
                }
            }
            Op::CreateContext { path } => {
                let p = normalize_path(path)?;
                self.check_parent(&p)?;
                if self.entries.contains_key(&p) {
                    return Err(HdnsError::AlreadyBound(p));
                }
                self.entries.insert(p, HdnsEntry::context());
                Ok(())
            }
            Op::SetAttrs { path, attrs } => {
                let p = normalize_path(path)?;
                let entry = self.entries.get_mut(&p).ok_or(HdnsError::NotFound(p))?;
                entry.attrs = attrs.clone();
                Ok(())
            }
        }
    }

    /// Serialize the full state (state transfer + disk snapshots) into one
    /// buffer sized for it up front.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut len = U8_LEN + U64_LEN + U32_LEN;
        for (path, e) in &self.entries {
            let attrs: usize = e.attrs.iter().map(|(k, v)| k.len() + v.len()).sum();
            len += MIN_ENTRY_LEN + path.len() + e.value.len() + 2 * U32_LEN * e.attrs.len() + attrs;
        }
        let mut out = Vec::with_capacity(len);
        codec::put_u8(&mut out, SNAPSHOT_VERSION);
        codec::put_u64(&mut out, self.ops_applied);
        codec::put_len(&mut out, self.entries.len());
        for (path, entry) in &self.entries {
            codec::put_str(&mut out, path);
            put_entry(&mut out, entry, 0);
        }
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Restore from a snapshot: the binary form, strictly (so what restores
    /// re-encodes to the same bytes), or the JSON form of earlier versions.
    pub fn restore(bytes: &[u8]) -> Result<HdnsStore, String> {
        if bytes.first() == Some(&JSON_OPEN) {
            return serde_json::from_slice(bytes).map_err(|e| e.to_string());
        }
        Self::decode(bytes).map_err(|e| e.to_string())
    }

    fn decode(bytes: &[u8]) -> Result<HdnsStore, DecodeError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8("snapshot version")?;
        if tag != SNAPSHOT_VERSION {
            let what = "snapshot version";
            return Err(DecodeError::UnknownTag { what, tag });
        }
        let mut store = HdnsStore {
            entries: BTreeMap::new(),
            ops_applied: r.u64("ops applied")?,
        };
        for _ in 0..r.count(MIN_ENTRY_LEN, "entry count")? {
            let path = r.str("path")?;
            if store
                .entries
                .last_key_value()
                .is_some_and(|(last, _)| last.as_str() >= path)
            {
                return Err(DecodeError::Invalid("entry order"));
            }
            let (entry, _) = entry(&mut r, 0)?;
            store.entries.insert(path.to_owned(), entry);
        }
        r.finish()?;
        Ok(store)
    }

    /// Iterate all `(path, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &HdnsEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// What `snapshot()` wrote for [`json_era_store`] before the binary
    /// form: a data dir or a state transfer from an older binary.
    pub(crate) const JSON_ERA_SNAPSHOT: &[u8] = r#"{"entries":{"c":{"attrs":{},"is_context":true,"value":[]},"c/x":{"attrs":{"k":"v","owner":"é"},"is_context":false,"value":[7]}},"ops_applied":2}"#.as_bytes();

    pub(crate) fn json_era_store() -> HdnsStore {
        let mut s = HdnsStore::new();
        s.apply(&Op::CreateContext { path: "c".into() }).unwrap();
        s.apply(&Op::Bind {
            path: "c/x".into(),
            entry: HdnsEntry::leaf(vec![7])
                .with_attr("k", "v")
                .with_attr("owner", "é"),
            overwrite: false,
        })
        .unwrap();
        s
    }

    #[test]
    fn bind_get_roundtrip() {
        let mut s = HdnsStore::new();
        s.apply(&Op::Bind {
            path: "x".into(),
            entry: HdnsEntry::leaf(vec![1]),
            overwrite: false,
        })
        .unwrap();
        assert_eq!(s.get("x").unwrap().value, vec![1]);
        assert_eq!(s.get("/x/").unwrap().value, vec![1], "normalized");
    }

    #[test]
    fn atomic_bind_conflicts() {
        let mut s = HdnsStore::new();
        let bind = |overwrite| Op::Bind {
            path: "k".into(),
            entry: HdnsEntry::leaf(vec![2]),
            overwrite,
        };
        s.apply(&bind(false)).unwrap();
        assert_eq!(
            s.apply(&bind(false)),
            Err(HdnsError::AlreadyBound("k".into()))
        );
        s.apply(&bind(true)).unwrap();
    }

    #[test]
    fn hierarchy_enforced() {
        let mut s = HdnsStore::new();
        assert!(matches!(
            s.apply(&Op::Bind {
                path: "a/b".into(),
                entry: HdnsEntry::leaf(vec![]),
                overwrite: false
            }),
            Err(HdnsError::NotFound(_))
        ));
        s.apply(&Op::CreateContext { path: "a".into() }).unwrap();
        s.apply(&Op::Bind {
            path: "a/b".into(),
            entry: HdnsEntry::leaf(vec![3]),
            overwrite: false,
        })
        .unwrap();
        // A leaf cannot parent children.
        assert!(matches!(
            s.apply(&Op::Bind {
                path: "a/b/c".into(),
                entry: HdnsEntry::leaf(vec![]),
                overwrite: false
            }),
            Err(HdnsError::NotAContext(_))
        ));
    }

    #[test]
    fn unbind_guards_nonempty_context() {
        let mut s = HdnsStore::new();
        s.apply(&Op::CreateContext { path: "c".into() }).unwrap();
        s.apply(&Op::Bind {
            path: "c/x".into(),
            entry: HdnsEntry::leaf(vec![]),
            overwrite: false,
        })
        .unwrap();
        assert_eq!(
            s.apply(&Op::Unbind { path: "c".into() }),
            Err(HdnsError::NotEmpty("c".into()))
        );
        s.apply(&Op::Unbind { path: "c/x".into() }).unwrap();
        s.apply(&Op::Unbind { path: "c".into() }).unwrap();
        // Unbinding a missing path succeeds (idempotent).
        s.apply(&Op::Unbind { path: "c".into() }).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn list_direct_children_only() {
        let mut s = HdnsStore::new();
        s.apply(&Op::CreateContext { path: "a".into() }).unwrap();
        s.apply(&Op::CreateContext { path: "a/b".into() }).unwrap();
        s.apply(&Op::Bind {
            path: "a/leaf".into(),
            entry: HdnsEntry::leaf(vec![]),
            overwrite: false,
        })
        .unwrap();
        s.apply(&Op::Bind {
            path: "a/b/deep".into(),
            entry: HdnsEntry::leaf(vec![]),
            overwrite: false,
        })
        .unwrap();
        let mut names: Vec<String> = s.list("a").into_iter().map(|(n, _)| n).collect();
        names.sort();
        assert_eq!(names, vec!["b", "leaf"]);
        let root: Vec<String> = s.list("").into_iter().map(|(n, _)| n).collect();
        assert_eq!(root, vec!["a"]);
    }

    #[test]
    fn rename_semantics() {
        let mut s = HdnsStore::new();
        s.apply(&Op::Bind {
            path: "old".into(),
            entry: HdnsEntry::leaf(vec![7]),
            overwrite: false,
        })
        .unwrap();
        s.apply(&Op::Rename {
            from: "old".into(),
            to: "new".into(),
        })
        .unwrap();
        assert!(s.get("old").is_none());
        assert_eq!(s.get("new").unwrap().value, vec![7]);
        assert_eq!(
            s.apply(&Op::Rename {
                from: "ghost".into(),
                to: "x".into()
            }),
            Err(HdnsError::NotFound("ghost".into()))
        );
    }

    #[test]
    fn set_attrs() {
        let mut s = HdnsStore::new();
        s.apply(&Op::Bind {
            path: "e".into(),
            entry: HdnsEntry::leaf(vec![]).with_attr("a", "1"),
            overwrite: false,
        })
        .unwrap();
        let mut attrs = BTreeMap::new();
        attrs.insert("b".to_string(), "2".to_string());
        s.apply(&Op::SetAttrs {
            path: "e".into(),
            attrs,
        })
        .unwrap();
        let e = s.get("e").unwrap();
        assert!(!e.attrs.contains_key("a"));
        assert_eq!(e.attrs["b"], "2");
    }

    #[test]
    fn snapshot_restore_identical() {
        let mut s = HdnsStore::new();
        s.apply(&Op::CreateContext { path: "a".into() }).unwrap();
        s.apply(&Op::Bind {
            path: "a/x".into(),
            entry: HdnsEntry::leaf(vec![9]).with_attr("k", "v"),
            overwrite: false,
        })
        .unwrap();
        let snap = s.snapshot();
        let restored = HdnsStore::restore(&snap).unwrap();
        assert_eq!(restored.len(), s.len());
        assert_eq!(restored.get("a/x"), s.get("a/x"));
        assert!(HdnsStore::restore(b"junk").is_err());
    }

    #[test]
    fn deterministic_convergence() {
        // Two replicas applying the same op sequence end identical, even
        // when ops fail.
        let ops = [
            Op::CreateContext { path: "c".into() },
            Op::Bind {
                path: "c/x".into(),
                entry: HdnsEntry::leaf(vec![1]),
                overwrite: false,
            },
            Op::Bind {
                path: "c/x".into(),
                entry: HdnsEntry::leaf(vec![2]),
                overwrite: false,
            }, // conflict: fails identically on both
            Op::Unbind {
                path: "nope".into(),
            },
            Op::Rename {
                from: "c/x".into(),
                to: "c/y".into(),
            },
        ];
        let mut a = HdnsStore::new();
        let mut b = HdnsStore::new();
        // …and whether the op is borrowed or given away.
        let ra: Vec<_> = ops.iter().map(|o| a.apply(o)).collect();
        let rb: Vec<_> = ops.iter().map(|o| b.apply_owned(o.clone())).collect();
        assert_eq!(ra, rb);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.get("c/y").unwrap().value, vec![1], "first bind won");
    }

    #[test]
    fn invalid_paths_rejected() {
        let mut s = HdnsStore::new();
        for bad in ["", "/", "a//b"] {
            assert!(matches!(
                s.apply(&Op::Unbind { path: bad.into() }),
                Err(HdnsError::InvalidPath(_))
            ));
        }
    }
}
