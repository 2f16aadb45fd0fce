//! The replicated store: one record per binding, deterministic operations,
//! and its snapshot (state transfer + the snapshot file).
//!
//! A record *is* the binding's snapshot entry, byte for byte — `path |
//! flags | value | attrs` over [`groupcast::codec`], flags as in a
//! proposal's Bind (`2` = is_context), attrs as a count and key/value pairs
//! in key order — held once in an `Arc<[u8]>` that every read shares
//! ([`HdnsEntry`]). The store keeps its records ordered by their path bytes,
//! which is `str` order, so a snapshot is a header and the records
//! concatenated: `0x02 | ops_applied u64 | count u32 | record*`.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

use groupcast::codec::{self, DecodeError, Reader, U32_LEN, U64_LEN, U8_LEN};
use serde::{Deserialize, Serialize};

/// The snapshot format's version byte (a proposal's is `0x01`).
const SNAPSHOT_VERSION: u8 = 0x02;
/// The fewest bytes one entry encodes to: path, flags, value, attrs, all empty.
const MIN_ENTRY_LEN: usize = U32_LEN + U8_LEN + U32_LEN + U32_LEN;
/// The entry flag a context carries (a Bind proposal may add others).
pub(crate) const FLAG_IS_CONTEXT: u8 = 2;

/// An entry in the naming service: one shared record (see the module doc).
/// A clone shares it, so the store, a lookup's answer and a listing hold
/// the same bytes. An entry not yet bound has an empty path; equality is
/// the entry's, not its name's, and does not compare the path.
#[derive(Clone, Debug)]
pub struct HdnsEntry(Arc<[u8]>);

const SOUND: &str = "a record is checked when it is made";

impl HdnsEntry {
    pub fn leaf(value: Vec<u8>) -> HdnsEntry {
        HdnsEntry::build("", 0, &value, std::iter::empty())
    }

    pub fn context() -> HdnsEntry {
        HdnsEntry::build("", FLAG_IS_CONTEXT, &[], std::iter::empty())
    }

    /// This entry with attribute `k` set to `v`.
    pub fn with_attr(self, k: &str, v: &str) -> Self {
        let mut attrs: BTreeMap<&str, &str> = self.attrs().collect();
        attrs.insert(k, v);
        let attrs = attrs.iter().map(|(k, v)| (*k, *v));
        HdnsEntry::build(self.path(), self.body()[0], self.value(), attrs)
    }

    /// Whether this entry is a subcontext (may have children).
    pub fn is_context(&self) -> bool {
        self.body()[0] & FLAG_IS_CONTEXT != 0
    }

    /// Marshalled bound value (opaque to HDNS).
    pub fn value(&self) -> &[u8] {
        self.fields().bytes("value").expect(SOUND)
    }

    /// String attributes in key order (HDNS keeps its attribute model
    /// simple; richer typing lives in the client layers).
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        let mut r = self.fields();
        r.bytes("value").expect(SOUND);
        let n = r.u32("attribute count").expect(SOUND);
        (0..n).map(move |_| {
            let k = r.str("attribute name").expect(SOUND);
            (k, r.str("attribute value").expect(SOUND))
        })
    }

    /// The record split after its path: `(path, flags | value | attrs)`.
    fn split(&self) -> (&[u8], &[u8]) {
        let (len, rest) = self.0.split_at(U32_LEN);
        rest.split_at(u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize)
    }

    fn path_bytes(&self) -> &[u8] {
        self.split().0
    }

    pub(crate) fn path(&self) -> &str {
        std::str::from_utf8(self.path_bytes()).expect(SOUND)
    }

    fn body(&self) -> &[u8] {
        self.split().1
    }

    /// A reader at `value | attrs`.
    fn fields(&self) -> Reader<'_> {
        Reader::new(&self.body()[U8_LEN..])
    }

    /// The record `path | flags | value | attrs`.
    pub(crate) fn build<'a>(
        path: &str,
        flags: u8,
        value: &[u8],
        attrs: impl ExactSizeIterator<Item = (&'a str, &'a str)>,
    ) -> HdnsEntry {
        let mut out = Vec::with_capacity(MIN_ENTRY_LEN + path.len() + value.len());
        codec::put_str(&mut out, path);
        codec::put_u8(&mut out, flags);
        codec::put_bytes(&mut out, value);
        put_attrs(&mut out, attrs);
        HdnsEntry(out.into())
    }

    /// This entry bound at `path`: itself when its record already names
    /// `path`, else one new record.
    fn at(self, path: &str) -> HdnsEntry {
        if self.path_bytes() == path.as_bytes() {
            return self;
        }
        let mut out = Vec::with_capacity(U32_LEN + path.len() + self.body().len());
        codec::put_str(&mut out, path);
        out.extend_from_slice(self.body());
        HdnsEntry(out.into())
    }

    /// `flags | value | attrs` as a proposal's Bind carries them, flags =
    /// `extra` | is_context.
    pub(crate) fn put_body(&self, out: &mut Vec<u8>, extra: u8) {
        let body = self.body();
        codec::put_u8(out, extra | body[0]);
        out.extend_from_slice(&body[U8_LEN..]);
    }

    /// The record at `r` — `path | flags | value | attrs`, checked strictly:
    /// UTF-8 text, attributes in ascending key order, no flag outside
    /// `extra` | is_context — copied as one allocation with `extra`
    /// cleared, and the flags it was read with.
    pub(crate) fn read(r: &mut Reader<'_>, extra: u8) -> Result<(HdnsEntry, u8), DecodeError> {
        let start = r.rest();
        let path_len = r.str("path")?.len();
        let flags = r.u8("entry flags")?;
        if flags & !(extra | FLAG_IS_CONTEXT) != 0 {
            return Err(DecodeError::Invalid("entry flags"));
        }
        r.bytes("value")?;
        each_attr(r, |_, _| {})?;
        let mut record: Arc<[u8]> = Arc::from(&start[..start.len() - r.rest().len()]);
        if flags & extra != 0 {
            Arc::get_mut(&mut record).expect("not yet shared")[U32_LEN + path_len] &= !extra;
        }
        Ok((HdnsEntry(record), flags))
    }
}

/// `attrs` as a count and its key/value pairs, in the order given.
pub(crate) fn put_attrs<'a>(
    out: &mut Vec<u8>,
    attrs: impl ExactSizeIterator<Item = (&'a str, &'a str)>,
) {
    codec::put_len(out, attrs.len());
    for (k, v) in attrs {
        codec::put_str(out, k);
        codec::put_str(out, v);
    }
}

/// Each attribute pair at `r`, keys checked to ascend strictly — as an
/// encoder walks a map, so a record has one byte form and replicas that
/// log or snapshot it agree on bytes.
pub(crate) fn each_attr<'a>(
    r: &mut Reader<'a>,
    mut pair: impl FnMut(&'a str, &'a str),
) -> Result<(), DecodeError> {
    let mut last: Option<&str> = None;
    for _ in 0..r.count(2 * U32_LEN, "attribute count")? {
        let k = r.str("attribute name")?;
        if last.is_some_and(|last| last >= k) {
            return Err(DecodeError::Invalid("attribute order"));
        }
        last = Some(k);
        pair(k, r.str("attribute value")?);
    }
    Ok(())
}

impl PartialEq for HdnsEntry {
    fn eq(&self, other: &Self) -> bool {
        self.body() == other.body()
    }
}

impl Eq for HdnsEntry {}

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
#[derive(Clone, Debug, PartialEq, Eq)]
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
fn normalize_path(path: &str) -> Result<&str, HdnsError> {
    let p = path.trim_matches('/');
    if p.is_empty() || p.split('/').any(|s| s.is_empty()) {
        return Err(HdnsError::InvalidPath(path.to_string()));
    }
    Ok(p)
}

fn parent_of(path: &str) -> Option<&str> {
    path.rsplit_once('/').map(|(p, _)| p)
}

/// A record as the store's ordered set holds it: ordered, and found, by
/// its path bytes — `str` order, without reading them as text again.
#[derive(Clone, Debug)]
struct Keyed(HdnsEntry);

impl Borrow<[u8]> for Keyed {
    fn borrow(&self) -> &[u8] {
        self.0.path_bytes()
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.path_bytes().cmp(other.0.path_bytes())
    }
}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.0.path_bytes() == other.0.path_bytes()
    }
}

impl Eq for Keyed {}

/// The replica-local store: one record per normalized path, in path
/// order; hierarchy is enforced on mutation (parents must be contexts).
#[derive(Clone, Debug, Default)]
pub struct HdnsStore {
    entries: BTreeSet<Keyed>,
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
        let p = normalize_path(path).ok()?;
        self.entries.get(p.as_bytes()).map(|k| &k.0)
    }

    /// The records from `from` on, in path order.
    fn records_from(&self, from: &[u8]) -> impl Iterator<Item = &HdnsEntry> {
        self.entries
            .range::<[u8], _>((Bound::Included(from), Bound::Unbounded))
            .map(|k| &k.0)
    }

    /// Direct children of `prefix` (`""` = root). A prefix's subtree is
    /// contiguous in path order, and so is each child's own, which one
    /// seek skips (to `child0`: `0` follows `/`), so the root of a store
    /// of contexts is listed in one read per context and subtree.
    pub fn list(&self, prefix: &str) -> Vec<(String, &HdnsEntry)> {
        let norm = prefix.trim_matches('/');
        let under = if norm.is_empty() {
            String::new()
        } else {
            format!("{norm}/")
        };
        let mut children = Vec::new();
        let mut records = self.records_from(under.as_bytes());
        while let Some(e) = records.next() {
            let Some(rest) = e.path().strip_prefix(&under) else {
                break;
            };
            match rest.split_once('/') {
                None => children.push((rest.to_string(), e)),
                Some((child, _)) => {
                    records = self.records_from(format!("{under}{child}0").as_bytes())
                }
            }
        }
        children
    }

    fn check_parent(&self, path: &str) -> Result<(), HdnsError> {
        if let Some(parent) = parent_of(path) {
            match self.entries.get(parent.as_bytes()) {
                Some(k) if k.0.is_context() => Ok(()),
                Some(_) => Err(HdnsError::NotAContext(parent.to_string())),
                None => Err(HdnsError::NotFound(parent.to_string())),
            }
        } else {
            Ok(())
        }
    }

    fn has_children(&self, path: &str) -> bool {
        let prefix = format!("{path}/");
        self.records_from(prefix.as_bytes())
            .next()
            .is_some_and(|e| e.path_bytes().starts_with(prefix.as_bytes()))
    }

    /// The normalized key `path` may be bound under, or why it may not.
    fn bindable<'a>(&self, path: &'a str, overwrite: bool) -> Result<&'a str, HdnsError> {
        let p = normalize_path(path)?;
        self.check_parent(p)?;
        match self.entries.get(p.as_bytes()) {
            Some(_) if !overwrite => Err(HdnsError::AlreadyBound(p.to_string())),
            Some(k) if k.0.is_context() && self.has_children(p) => {
                Err(HdnsError::NotEmpty(p.to_string()))
            }
            _ => Ok(p),
        }
    }

    /// Apply an operation. Deterministic: identical stores applying the
    /// same op yield identical results and identical new states.
    pub fn apply(&mut self, op: &Op) -> Result<(), HdnsError> {
        self.apply_owned(op.clone())
    }

    /// [`HdnsStore::apply`] for a caller that is done with the op: a bound
    /// entry whose record already names its path moves into the store as
    /// it is.
    pub fn apply_owned(&mut self, op: Op) -> Result<(), HdnsError> {
        self.ops_applied += 1;
        match op {
            Op::Bind {
                path,
                entry,
                overwrite,
            } => {
                let p = self.bindable(&path, overwrite)?;
                self.entries.replace(Keyed(entry.at(p)));
                Ok(())
            }
            Op::Unbind { path } => {
                let p = normalize_path(&path)?;
                if self.has_children(p) {
                    return Err(HdnsError::NotEmpty(p.to_string()));
                }
                self.entries.remove(p.as_bytes());
                Ok(())
            }
            Op::Rename { from, to } => {
                let f = normalize_path(&from)?;
                let t = normalize_path(&to)?;
                if self.has_children(f) {
                    return Err(HdnsError::NotEmpty(f.to_string()));
                }
                // Remove first, then validate the target — so renaming a
                // context *into its own subtree* (a → a/b) fails on the
                // missing parent instead of orphaning the entry.
                let Keyed(entry) = self
                    .entries
                    .take(f.as_bytes())
                    .ok_or_else(|| HdnsError::NotFound(f.to_string()))?;
                let target_ok = if self.entries.contains(t.as_bytes()) {
                    Err(HdnsError::AlreadyBound(t.to_string()))
                } else {
                    self.check_parent(t)
                };
                let (kept, result) = match target_ok {
                    Ok(()) => (entry.at(t), Ok(())),
                    Err(e) => (entry, Err(e)),
                };
                self.entries.insert(Keyed(kept));
                result
            }
            Op::CreateContext { path } => {
                let p = normalize_path(&path)?;
                self.check_parent(p)?;
                if self.entries.contains(p.as_bytes()) {
                    return Err(HdnsError::AlreadyBound(p.to_string()));
                }
                let context = HdnsEntry::build(p, FLAG_IS_CONTEXT, &[], std::iter::empty());
                self.entries.insert(Keyed(context));
                Ok(())
            }
            Op::SetAttrs { path, attrs } => {
                let p = normalize_path(&path)?;
                let Keyed(e) = self
                    .entries
                    .get(p.as_bytes())
                    .ok_or_else(|| HdnsError::NotFound(p.to_string()))?;
                let attrs = attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                let updated = HdnsEntry::build(p, e.body()[0], e.value(), attrs);
                self.entries.replace(Keyed(updated));
                Ok(())
            }
        }
    }

    /// Serialize the full state (state transfer + disk snapshots): the
    /// header, then every record as it is held, into one buffer sized for
    /// it up front.
    pub fn snapshot(&self) -> Vec<u8> {
        let records: usize = self.entries.iter().map(|k| k.0 .0.len()).sum();
        let mut out = Vec::with_capacity(U8_LEN + U64_LEN + U32_LEN + records);
        codec::put_u8(&mut out, SNAPSHOT_VERSION);
        codec::put_u64(&mut out, self.ops_applied);
        codec::put_len(&mut out, self.entries.len());
        for Keyed(entry) in &self.entries {
            out.extend_from_slice(&entry.0);
        }
        out
    }

    /// Restore from a snapshot, strictly: what restores re-encodes to the
    /// same bytes. Versions before the binary form wrote JSON snapshots;
    /// one starts with `{`, which is no version byte, and is refused.
    pub fn restore(bytes: &[u8]) -> Result<HdnsStore, String> {
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
            entries: BTreeSet::new(),
            ops_applied: r.u64("ops applied")?,
        };
        for _ in 0..r.count(MIN_ENTRY_LEN, "entry count")? {
            let (entry, _) = HdnsEntry::read(&mut r, 0)?;
            if store
                .entries
                .last()
                .is_some_and(|last| last.0.path_bytes() >= entry.path_bytes())
            {
                return Err(DecodeError::Invalid("entry order"));
            }
            store.entries.insert(Keyed(entry));
        }
        r.finish()?;
        Ok(store)
    }

    /// Iterate all `(path, entry)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &HdnsEntry)> {
        self.entries.iter().map(|k| (k.0.path(), &k.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_get_roundtrip() {
        let mut s = HdnsStore::new();
        s.apply(&Op::Bind {
            path: "x".into(),
            entry: HdnsEntry::leaf(vec![1]),
            overwrite: false,
        })
        .unwrap();
        assert_eq!(s.get("x").unwrap().value(), [1]);
        assert_eq!(s.get("/x/").unwrap().value(), [1], "normalized");
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
        assert_eq!(s.get("new").unwrap().value(), [7]);
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
        assert_eq!(
            s.get("e").unwrap().attrs().collect::<Vec<_>>(),
            [("b", "2")]
        );
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
        assert_eq!(a.get("c/y").unwrap().value(), [1], "first bind won");
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
