//! `HdnsStore` against its oracle: the store as it was before a binding
//! became one shared record — a `BTreeMap` from normalized path to an entry
//! owning its value and attribute map, listing the root by walking every
//! key — kept here and nowhere else. Both take the same random op sequence
//! over a small path alphabet (contexts, renames into their own subtree,
//! un-normalized paths such as `/a/`, `a//b` and `""`), and must agree on
//! every result, every `get` and `list` (the root's included) after every
//! op, and on their snapshot bytes; the store must also restore from its
//! snapshot to the same bytes. A failure prints the runner's seed and the
//! sequence shrunk to the ops it still fails without.

use std::collections::BTreeMap;

use groupcast::codec;
use hdns::{HdnsEntry, HdnsError, HdnsStore, Op};
use proptest::prelude::*;

/// An entry as the oracle holds it.
#[derive(Clone, Debug, PartialEq)]
struct Entry {
    value: Vec<u8>,
    attrs: BTreeMap<String, String>,
    is_context: bool,
}

impl Entry {
    fn of(e: &HdnsEntry) -> Entry {
        Entry {
            value: e.value().to_vec(),
            attrs: e.attrs().map(|(k, v)| (k.into(), v.into())).collect(),
            is_context: e.is_context(),
        }
    }

    fn record(&self) -> HdnsEntry {
        let bare = if self.is_context {
            HdnsEntry::context()
        } else {
            HdnsEntry::leaf(self.value.clone())
        };
        self.attrs.iter().fold(bare, |e, (k, v)| e.with_attr(k, v))
    }
}

/// One op of a sequence, its entry in the oracle's terms.
#[derive(Clone, Debug)]
enum Step {
    Bind(String, Entry, bool),
    Unbind(String),
    Rename(String, String),
    CreateContext(String),
    SetAttrs(String, BTreeMap<String, String>),
}

impl Step {
    fn op(&self) -> Op {
        match self.clone() {
            Step::Bind(path, entry, overwrite) => Op::Bind {
                path,
                entry: entry.record(),
                overwrite,
            },
            Step::Unbind(path) => Op::Unbind { path },
            Step::Rename(from, to) => Op::Rename { from, to },
            Step::CreateContext(path) => Op::CreateContext { path },
            Step::SetAttrs(path, attrs) => Op::SetAttrs { path, attrs },
        }
    }

    fn paths(&self) -> Vec<&str> {
        match self {
            Step::Rename(from, to) => vec![from, to],
            Step::Bind(p, ..) | Step::Unbind(p) | Step::CreateContext(p) | Step::SetAttrs(p, _) => {
                vec![p]
            }
        }
    }
}

fn normalize_path(path: &str) -> Result<String, HdnsError> {
    let p = path.trim_matches('/');
    if p.is_empty() || p.split('/').any(|s| s.is_empty()) {
        return Err(HdnsError::InvalidPath(path.to_string()));
    }
    Ok(p.to_string())
}

fn parent_of(path: &str) -> Option<&str> {
    path.rsplit_once('/').map(|(p, _)| p)
}

/// The oracle store.
#[derive(Default)]
struct Oracle {
    entries: BTreeMap<String, Entry>,
    ops_applied: u64,
}

impl Oracle {
    fn get(&self, path: &str) -> Option<&Entry> {
        normalize_path(path).ok().and_then(|p| self.entries.get(&p))
    }

    fn list(&self, prefix: &str) -> Vec<(String, &Entry)> {
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
            .map(|(k, v)| (k.rsplit('/').next().unwrap().to_string(), v))
            .collect()
    }

    fn check_parent(&self, path: &str) -> Result<(), HdnsError> {
        match parent_of(path).map(|p| (p, self.entries.get(p))) {
            None => Ok(()),
            Some((_, Some(e))) if e.is_context => Ok(()),
            Some((p, Some(_))) => Err(HdnsError::NotAContext(p.to_string())),
            Some((p, None)) => Err(HdnsError::NotFound(p.to_string())),
        }
    }

    fn has_children(&self, path: &str) -> bool {
        let prefix = format!("{path}/");
        self.entries
            .range(prefix.clone()..)
            .next()
            .is_some_and(|(k, _)| k.starts_with(&prefix))
    }

    fn apply(&mut self, step: &Step) -> Result<(), HdnsError> {
        self.ops_applied += 1;
        match step {
            Step::Bind(path, entry, overwrite) => {
                let p = normalize_path(path)?;
                self.check_parent(&p)?;
                if !overwrite && self.entries.contains_key(&p) {
                    return Err(HdnsError::AlreadyBound(p));
                }
                if self.entries.get(&p).is_some_and(|e| e.is_context) && self.has_children(&p) {
                    return Err(HdnsError::NotEmpty(p));
                }
                self.entries.insert(p, entry.clone());
                Ok(())
            }
            Step::Unbind(path) => {
                let p = normalize_path(path)?;
                if self.has_children(&p) {
                    return Err(HdnsError::NotEmpty(p));
                }
                self.entries.remove(&p);
                Ok(())
            }
            Step::Rename(from, to) => {
                let f = normalize_path(from)?;
                let t = normalize_path(to)?;
                if self.has_children(&f) {
                    return Err(HdnsError::NotEmpty(f));
                }
                let entry = self
                    .entries
                    .remove(&f)
                    .ok_or_else(|| HdnsError::NotFound(f.clone()))?;
                let target_ok = if self.entries.contains_key(&t) {
                    Err(HdnsError::AlreadyBound(t.clone()))
                } else {
                    self.check_parent(&t)
                };
                let key = if target_ok.is_ok() { t } else { f };
                self.entries.insert(key, entry);
                target_ok
            }
            Step::CreateContext(path) => {
                let p = normalize_path(path)?;
                self.check_parent(&p)?;
                if self.entries.contains_key(&p) {
                    return Err(HdnsError::AlreadyBound(p));
                }
                let context = Entry {
                    value: Vec::new(),
                    attrs: BTreeMap::new(),
                    is_context: true,
                };
                self.entries.insert(p, context);
                Ok(())
            }
            Step::SetAttrs(path, attrs) => {
                let p = normalize_path(path)?;
                let entry = self.entries.get_mut(&p).ok_or(HdnsError::NotFound(p))?;
                entry.attrs = attrs.clone();
                Ok(())
            }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = vec![0x02];
        codec::put_u64(&mut out, self.ops_applied);
        codec::put_len(&mut out, self.entries.len());
        for (path, e) in &self.entries {
            codec::put_str(&mut out, path);
            codec::put_u8(&mut out, if e.is_context { 2 } else { 0 });
            codec::put_bytes(&mut out, &e.value);
            codec::put_len(&mut out, e.attrs.len());
            for (k, v) in &e.attrs {
                codec::put_str(&mut out, k);
                codec::put_str(&mut out, v);
            }
        }
        out
    }
}

type Listing = Vec<(String, Entry)>;

fn listing<'a>(l: impl IntoIterator<Item = (String, Entry)> + 'a) -> Listing {
    l.into_iter().collect()
}

/// Where the store first parts from the oracle over `steps`, if it does.
fn divergence(steps: &[Step]) -> Option<String> {
    let (mut store, mut oracle) = (HdnsStore::new(), Oracle::default());
    let mut probes: Vec<&str> = vec!["", "/"];
    for (i, step) in steps.iter().enumerate() {
        // Both ways in: the borrowed op and the op given away.
        let got = if i % 2 == 0 {
            store.apply(&step.op())
        } else {
            store.apply_owned(step.op())
        };
        let want = oracle.apply(step);
        if got != want {
            return Some(format!("step {i}: {step:?} gave {got:?}, oracle {want:?}"));
        }
        probes.extend(step.paths());
        for path in &probes {
            let (got, want) = (store.get(path).map(Entry::of), oracle.get(path).cloned());
            if got != want {
                return Some(format!(
                    "after step {i}: get({path:?}) = {got:?}, oracle {want:?}"
                ));
            }
            let got = listing(store.list(path).into_iter().map(|(n, e)| (n, Entry::of(e))));
            let want = listing(oracle.list(path).into_iter().map(|(n, e)| (n, e.clone())));
            if got != want {
                return Some(format!(
                    "after step {i}: list({path:?}) = {got:?}, oracle {want:?}"
                ));
            }
        }
        if store.snapshot() != oracle.snapshot() {
            return Some(format!("after step {i}: snapshot bytes differ"));
        }
    }
    let snapshot = store.snapshot();
    match HdnsStore::restore(&snapshot) {
        Ok(back) if back.snapshot() == snapshot => None,
        Ok(_) => Some("restore(snapshot) re-encodes to other bytes".into()),
        Err(why) => Some(format!("restore(snapshot) refused: {why}")),
    }
}

/// `steps` less every op it still fails without, one at a time.
fn shrink(mut steps: Vec<Step>) -> Vec<Step> {
    let mut i = 0;
    while i < steps.len() {
        let mut fewer = steps.clone();
        fewer.remove(i);
        if divergence(&fewer).is_some() {
            steps = fewer;
        } else {
            i += 1;
        }
    }
    steps
}

/// Segments that sort on both sides of `/` (`-` < `/` < `0`), so a
/// sibling can sit between a name and its subtree.
fn any_path() -> impl Strategy<Value = String> {
    let segment = prop_oneof![Just("a"), Just("b"), Just("a-"), Just("a0")];
    (proptest::collection::vec(segment, 1..4), 0..11).prop_map(|(segments, shape)| {
        let path = segments.join("/");
        match shape {
            0 => format!("/{path}/"),
            1 => path.replacen('/', "//", 1),
            2 => String::new(),
            _ => path,
        }
    })
}

fn any_attrs() -> impl Strategy<Value = BTreeMap<String, String>> {
    proptest::collection::btree_map("[ké]{1,2}", "[a-z]{0,3}", 0..3)
}

fn any_entry() -> impl Strategy<Value = Entry> {
    let value = proptest::collection::vec(any::<u8>(), 0..6);
    (value, any_attrs(), any::<bool>()).prop_map(|(value, attrs, is_context)| Entry {
        value: if is_context { Vec::new() } else { value },
        attrs,
        is_context,
    })
}

fn any_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (any_path(), any_entry(), any::<bool>()).prop_map(|(p, e, o)| Step::Bind(p, e, o)),
        2 => any_path().prop_map(Step::Unbind),
        2 => (any_path(), any_path()).prop_map(|(f, t)| Step::Rename(f, t)),
        3 => any_path().prop_map(Step::CreateContext),
        1 => (any_path(), any_attrs()).prop_map(|(p, a)| Step::SetAttrs(p, a)),
    ]
}

proptest! {
    #[test]
    fn the_store_matches_its_oracle(steps in proptest::collection::vec(any_step(), 0..40)) {
        if let Some(why) = divergence(&steps) {
            let shrunk = shrink(steps);
            let why = divergence(&shrunk).unwrap_or(why);
            prop_assert!(false, "{why}\nshrunk sequence: {shrunk:#?}");
        }
    }
}
