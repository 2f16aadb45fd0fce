//! The Directory Information Tree.
//!
//! Entries keyed by normalized DN, with structural invariants enforced:
//! an entry's parent must exist (except suffixes at the tree root) and only
//! leaf entries can be deleted.
//!
//! Read-path layout: the entry map is keyed by the *root-first* folded DN
//! text (RDNs reversed, joined with an unprintable separator), so every
//! subtree is one contiguous key range and `OneLevel`/`Subtree` searches
//! are bounded range scans instead of full-tree walks. An equality index
//! over `(attribute, value)` pairs, but for the types in `UNFILED`, lets
//! searches whose filter holds an equality conjunct on a filed type start
//! from the posting set instead of the scope range — and, because postings
//! are ordered by the same tree keys, only from the slice of it under the
//! search base. Both structures only *prune*: every candidate is still
//! verified with the real scope predicate and `LdapFilter::matches`.
//!
//! Space: an entry's bytes exist once. Its tree key is one `Arc<str>` that
//! the entry map and the entry's postings share, the entry one
//! `Arc<LdapEntry>` that reads hand out, its attributes one record of
//! exactly their length; the index keys a value by a hash of it and holds
//! no copy of its text.

use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasher;
use std::ops::Bound::{Included, Unbounded};
use std::sync::{Arc, OnceLock};

use crate::dn::{Dn, Rdn};
use crate::entry::{fold, hash_folded, LdapEntry};
use crate::filter::LdapFilter;

/// Separator between RDNs in root-first tree keys. An information
/// separator that normal DN text never contains; even if a value smuggles
/// one in, candidates are re-verified against the actual `Dn`, so the
/// range scan stays a pruning step rather than a correctness assumption.
const KEY_SEP: char = '\u{1f}';

/// The attribute types whose values the equality index does not file:
/// `rndiValue`, the JNDI provider's marshalled object, is unique per entry
/// and read only by DN, through a base-scope match-all that never probes
/// the index. An equality on one scans, and `LdapFilter::matches` decides.
const UNFILED: [&str; 1] = ["rndiValue"];

fn filed(attr: &str) -> bool {
    !UNFILED.iter().any(|t| t.eq_ignore_ascii_case(attr))
}

fn filed_pairs(entry: &LdapEntry) -> impl Iterator<Item = (&str, &str)> {
    entry.pairs().filter(|(attr, _)| filed(attr))
}

/// Search scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// The base entry only.
    Base,
    /// Direct children of the base.
    OneLevel,
    /// Base and all descendants.
    Subtree,
}

/// DIT operation errors (mapped to LDAP result codes by the server layer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DitError {
    NoSuchObject(String),
    AlreadyExists(String),
    NotAllowedOnNonLeaf(String),
    NoSuchParent(String),
}

/// Where a DN sits in the root-first key order: `o=emory` before its whole
/// subtree, which is the contiguous range of keys that start with
/// `o=emory` + [`KEY_SEP`]. Built once per operation and passed down.
struct TreeKey {
    /// The key with a trailing separator: the prefix of the subtree's keys.
    /// (The root's is empty: every key is below the root.)
    below: String,
}

thread_local! {
    /// The text of this thread's last dropped [`TreeKey`], for the next one
    /// to write over: a probe is the one string every operation builds, and
    /// this way a warmed thread builds it in place.
    static KEY_TEXT: Cell<String> = const { Cell::new(String::new()) };
}

impl TreeKey {
    fn of(dn: &Dn) -> Self {
        // `try_with`: a tree may be read while a thread's locals go away.
        let mut below = KEY_TEXT.try_with(Cell::take).unwrap_or_default();
        below.clear();
        for rdn in dn.rdns() {
            below.insert(0, KEY_SEP);
            below.insert_str(0, rdn.as_str());
        }
        below.make_ascii_lowercase();
        TreeKey { below }
    }

    /// The DN's own map key.
    fn own(&self) -> &str {
        self.below.strip_suffix(KEY_SEP).unwrap_or("")
    }
}

impl Drop for TreeKey {
    fn drop(&mut self) {
        let _ = KEY_TEXT.try_with(|text| text.set(std::mem::take(&mut self.below)));
    }
}

/// The tree keys of the entries holding one `(attribute, value)` pair,
/// ordered as `Dit::entries` is. A pair one entry holds — a name — costs
/// that entry's shared key and no set.
#[derive(Debug, Clone)]
enum Postings {
    One(Arc<str>),
    /// Boxed so that a posting — one per distinct value — is the size of a
    /// key.
    #[allow(clippy::box_collection)]
    Many(Box<BTreeSet<Arc<str>>>),
}

impl Postings {
    fn len(&self) -> usize {
        match self {
            Postings::One(_) => 1,
            Postings::Many(keys) => keys.len(),
        }
    }

    fn contains(&self, key: &str) -> bool {
        match self {
            Postings::One(only) => **only == *key,
            Postings::Many(keys) => keys.contains(key),
        }
    }

    fn insert(&mut self, key: &Arc<str>) {
        match self {
            Postings::One(only) if only == key => {}
            Postings::One(only) => {
                *self = Postings::Many(Box::new(BTreeSet::from([only.clone(), key.clone()])));
            }
            Postings::Many(keys) => {
                keys.insert(key.clone());
            }
        }
    }

    /// Drops `key`; `true` when that leaves no holder and the posting
    /// itself has to go.
    fn remove(&mut self, key: &str) -> bool {
        match self {
            Postings::One(only) => **only == *key,
            Postings::Many(keys) => {
                keys.remove(key);
                if keys.len() == 1 {
                    *self = Postings::One(keys.pop_first().expect("one key left"));
                }
                false
            }
        }
    }
}

/// `attribute → value → postings`. The attribute is folded to lower case;
/// the value is keyed by a keyed hash ([`RandomState`]) of its folded text,
/// not by a copy of it. Two values whose hashes collide share a posting,
/// which only widens a candidate set every hit is re-checked against.
/// Nested so a probe borrows its strings (and folds nothing that is lower
/// case already) instead of building an owned pair.
#[derive(Default, Debug, Clone)]
struct EqIndex {
    by_attr: HashMap<Box<str>, HashMap<u64, Postings>>,
    hasher: RandomState,
}

impl EqIndex {
    /// What `value` is filed under.
    fn key(&self, value: &str) -> u64 {
        let mut state = self.hasher.build_hasher();
        hash_folded(value, &mut state);
        std::hash::Hasher::finish(&state)
    }

    /// Whether `entry` holds a value of `attr` filed under `value`.
    fn files(&self, entry: &LdapEntry, attr: &str, value: u64) -> bool {
        let mut values = entry.get(attr).into_iter().flat_map(|a| a.values());
        values.any(|v| self.key(v) == value)
    }

    fn get(&self, attr: &str, value: &str) -> Option<&Postings> {
        self.by_attr.get(fold(attr).as_ref())?.get(&self.key(value))
    }

    fn insert(&mut self, attr: &str, value: u64, key: &Arc<str>) {
        let attr = fold(attr);
        if !self.by_attr.contains_key(attr.as_ref()) {
            self.by_attr.insert(attr.as_ref().into(), HashMap::new());
        }
        let by_value = self.by_attr.get_mut(attr.as_ref()).expect("present");
        match by_value.get_mut(&value) {
            Some(postings) => postings.insert(key),
            None => {
                by_value.insert(value, Postings::One(key.clone()));
            }
        }
    }

    fn remove(&mut self, attr: &str, value: u64, key: &str) {
        let attr = fold(attr);
        let Some(by_value) = self.by_attr.get_mut(attr.as_ref()) else {
            return;
        };
        let emptied = by_value.get_mut(&value);
        if emptied.is_some_and(|postings| postings.remove(key)) {
            by_value.remove(&value);
            if by_value.is_empty() {
                self.by_attr.remove(attr.as_ref());
            }
        }
    }
}

/// The best read strategy the equality index offers for a filter.
enum ReadPath<'a> {
    /// No equality conjunct on a filed type — fall back to the scope range scan.
    Unindexed,
    /// An equality conjunct nothing satisfies — the result is empty.
    Empty,
    /// Candidate tree keys (a superset of the matches).
    Keys(&'a Postings),
}

/// The tree. BTreeMap keeps deterministic enumeration order (root-first).
#[derive(Default, Debug, Clone)]
pub struct Dit {
    /// Root-first tree key → entry; each subtree is a contiguous range.
    entries: BTreeMap<Arc<str>, Arc<LdapEntry>>,
    /// Every `(attribute, value)` pair of a filed type → the entries holding
    /// it. Maintained by every mutation, alongside `entries`.
    eq_index: EqIndex,
}

impl Dit {
    pub fn new() -> Self {
        Dit::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn contains(&self, dn: &Dn) -> bool {
        self.entries.contains_key(TreeKey::of(dn).own())
    }

    pub fn get(&self, dn: &Dn) -> Option<&LdapEntry> {
        self.entries.get(TreeKey::of(dn).own()).map(Arc::as_ref)
    }

    /// Add an entry. The parent must already exist unless the entry is a
    /// suffix (depth 1) or the root itself.
    pub fn add(&mut self, entry: LdapEntry) -> Result<(), DitError> {
        self.add_at(&TreeKey::of(&entry.dn), entry)
    }

    fn add_at(&mut self, at: &TreeKey, entry: LdapEntry) -> Result<(), DitError> {
        if self.entries.contains_key(at.own()) {
            return Err(DitError::AlreadyExists(entry.dn.to_string()));
        }
        if let Some(parent) = entry.dn.parent() {
            if !parent.is_root() && !self.contains(&parent) {
                return Err(DitError::NoSuchParent(parent.to_string()));
            }
        }
        self.put(at, entry);
        Ok(())
    }

    /// Store `entry` under a fresh key, which its postings share.
    fn put(&mut self, at: &TreeKey, entry: LdapEntry) {
        let key: Arc<str> = at.own().into();
        for (attr, value) in filed_pairs(&entry) {
            let value = self.eq_index.key(value);
            self.eq_index.insert(attr, value, &key);
        }
        self.entries.insert(key, Arc::new(entry));
    }

    /// Delete a leaf entry.
    pub fn delete(&mut self, dn: &Dn) -> Result<Arc<LdapEntry>, DitError> {
        let at = TreeKey::of(dn);
        if !self.entries.contains_key(at.own()) {
            return Err(DitError::NoSuchObject(dn.to_string()));
        }
        if self.has_children(&at, dn) {
            return Err(DitError::NotAllowedOnNonLeaf(dn.to_string()));
        }
        Ok(self.take(&at).expect("checked present"))
    }

    /// Remove the entry at `at`, and its postings, whatever is below it.
    fn take(&mut self, at: &TreeKey) -> Option<Arc<LdapEntry>> {
        let (key, entry) = self.entries.remove_entry(at.own())?;
        for (attr, value) in filed_pairs(&entry) {
            let value = self.eq_index.key(value);
            self.eq_index.remove(attr, value, &key);
        }
        Some(entry)
    }

    /// Whether the entry has any children.
    ///
    /// A range probe over the entry's key block: because parents must exist
    /// and only leaves can be deleted, any descendant implies a direct
    /// child, so probing for *descendants* answers the child question.
    fn has_children(&self, at: &TreeKey, dn: &Dn) -> bool {
        self.entries
            .range::<str, _>((Included(at.below.as_str()), Unbounded))
            .take_while(|(k, _)| k.starts_with(&at.below))
            .any(|(_, e)| e.dn != *dn && e.dn.is_under(dn))
    }

    /// Put `entry` at its DN: over the leaf entry already there, or as a
    /// new entry under an existing parent. On any error the tree is as it
    /// was.
    pub fn replace(&mut self, entry: LdapEntry) -> Result<(), DitError> {
        let at = TreeKey::of(&entry.dn);
        if !self.entries.contains_key(at.own()) {
            return self.add_at(&at, entry);
        }
        if self.has_children(&at, &entry.dn) {
            return Err(DitError::NotAllowedOnNonLeaf(entry.dn.to_string()));
        }
        self.update_at(&at, entry)
    }

    /// Replace an entry's content in place (same DN).
    pub fn update(&mut self, entry: LdapEntry) -> Result<(), DitError> {
        self.update_at(&TreeKey::of(&entry.dn), entry)
    }

    /// Only the filed `(attribute, value)` pairs that left or arrived are
    /// edited in the index — compared as they are filed, so a value that
    /// changed case alone keeps its posting, and so does one whose hash
    /// another value of the attribute shares. A rebound leaf edits none.
    fn update_at(&mut self, at: &TreeKey, entry: LdapEntry) -> Result<(), DitError> {
        // A one-key range: the map's own (shared) key and the slot, in one
        // probe.
        let own = (Included(at.own()), Included(at.own()));
        let Some((key, slot)) = self.entries.range_mut::<str, _>(own).next() else {
            return Err(DitError::NoSuchObject(entry.dn.to_string()));
        };
        let index = &mut self.eq_index;
        for (attr, value) in filed_pairs(slot).filter(|(a, v)| !entry.has_value(a, v)) {
            let value = index.key(value);
            if !index.files(&entry, attr, value) {
                index.remove(attr, value, key);
            }
        }
        for (attr, value) in filed_pairs(&entry).filter(|(a, v)| !slot.has_value(a, v)) {
            let value = index.key(value);
            if !index.files(slot, attr, value) {
                index.insert(attr, value, key);
            }
        }
        *slot = Arc::new(entry);
        Ok(())
    }

    /// Rename a leaf entry's RDN (LDAP `modifyRDN`).
    pub fn modify_rdn(&mut self, dn: &Dn, new_rdn: Rdn) -> Result<Dn, DitError> {
        let at = TreeKey::of(dn);
        if self.has_children(&at, dn) {
            return Err(DitError::NotAllowedOnNonLeaf(dn.to_string()));
        }
        let parent = dn.parent().unwrap_or_else(Dn::root);
        let new_dn = parent.child(new_rdn.clone());
        let new_at = TreeKey::of(&new_dn);
        if self.entries.contains_key(new_at.own()) {
            return Err(DitError::AlreadyExists(new_dn.to_string()));
        }
        let Some(entry) = self.take(&at) else {
            return Err(DitError::NoSuchObject(dn.to_string()));
        };
        let mut entry = Arc::unwrap_or_clone(entry);
        entry.dn = new_dn.clone();
        // The new RDN's attribute value must be present on the entry.
        if !entry.has_value(&new_rdn.attr, &new_rdn.value) {
            entry.add_value(&new_rdn.attr, new_rdn.value);
        }
        self.put(&new_at, entry);
        Ok(new_dn)
    }

    /// The most selective indexed read strategy for `filter`: the smallest
    /// equality posting among conjuncts that *must* hold for a match.
    /// Recurses through `And` only — `Or`/`Not` arms don't constrain the
    /// candidate set, nor does an equality on an unfiled type.
    fn filter_posting(&self, filter: &LdapFilter) -> ReadPath<'_> {
        match filter {
            LdapFilter::Equality(attr, _) if !filed(attr) => ReadPath::Unindexed,
            LdapFilter::Equality(attr, value) => match self.eq_index.get(attr, value) {
                Some(keys) => ReadPath::Keys(keys),
                None => ReadPath::Empty,
            },
            LdapFilter::And(fs) => {
                let mut best = ReadPath::Unindexed;
                for f in fs {
                    match self.filter_posting(f) {
                        ReadPath::Empty => return ReadPath::Empty,
                        ReadPath::Keys(keys) => {
                            best = match best {
                                ReadPath::Keys(b) if b.len() <= keys.len() => ReadPath::Keys(b),
                                _ => ReadPath::Keys(keys),
                            };
                        }
                        ReadPath::Unindexed => {}
                    }
                }
                best
            }
            _ => ReadPath::Unindexed,
        }
    }

    /// Count which read path serves a search with this posting: a
    /// posting-set walk (index) or the scope range scan. Handles are cached
    /// in a static so the hot path pays one atomic increment, not a
    /// registry lock.
    fn count_read_path(posting: &ReadPath<'_>) {
        static COUNTERS: OnceLock<[Arc<rndi_obs::metrics::Counter>; 2]> = OnceLock::new();
        let [index_reads, scan_reads] = COUNTERS.get_or_init(|| {
            let name = rndi_obs::metrics::names::INDEX_READS;
            [
                rndi_obs::metrics::counter(name, &[("server", "dirserv"), ("path", "index")]),
                rndi_obs::metrics::counter(name, &[("server", "dirserv"), ("path", "scan")]),
            ]
        });
        if matches!(posting, ReadPath::Unindexed) {
            scan_reads.inc();
        } else {
            index_reads.inc();
        }
    }

    /// A `Base`-scope search: the entry at `base` when it matches `filter`.
    /// One keyed probe; the hit is still verified against the DN (under
    /// LDAP case rules, as the key folds it) and the full filter, as every
    /// candidate of [`Dit::search`] is.
    pub fn search_base(
        &self,
        base: &Dn,
        filter: &LdapFilter,
    ) -> Result<Option<&Arc<LdapEntry>>, DitError> {
        let at = TreeKey::of(base);
        let at_base = self.entries.get(at.own());
        if at_base.is_none() && !base.is_root() {
            return Err(DitError::NoSuchObject(base.to_string()));
        }
        let posting = self.filter_posting(filter);
        Self::count_read_path(&posting);
        let pruned = match posting {
            ReadPath::Unindexed => false,
            ReadPath::Empty => true,
            ReadPath::Keys(keys) => !keys.contains(at.own()),
        };
        Ok(at_base.filter(|e| !pruned && e.dn == *base && filter.matches(e)))
    }

    /// Search from `base` with the given scope and filter.
    ///
    /// Index-driven: an equality conjunct in the filter turns the search
    /// into a walk of that posting set (restricted to the base's key range
    /// when the base is not the root); otherwise `OneLevel`/`Subtree`
    /// scan only the base's contiguous key range and `Base` is a direct
    /// map probe. Every candidate is verified against the real scope
    /// predicate and the full filter.
    pub fn search<'a>(
        &'a self,
        base: &Dn,
        scope: Scope,
        filter: &LdapFilter,
        size_limit: usize,
    ) -> Result<Vec<&'a Arc<LdapEntry>>, DitError> {
        if scope == Scope::Base {
            return Ok(self.search_base(base, filter)?.into_iter().collect());
        }
        let at = TreeKey::of(base);
        if !base.is_root() && !self.entries.contains_key(at.own()) {
            return Err(DitError::NoSuchObject(base.to_string()));
        }
        // Only the base's own key and the contiguous range of keys below it
        // can be in scope.
        let in_block = |k: &str| k == at.own() || k.starts_with(&at.below);
        let cap = if size_limit == 0 {
            usize::MAX
        } else {
            size_limit
        };
        let mut out = Vec::new();
        // Verifies a candidate; `false` once the result is full.
        let mut offer = |e: &'a Arc<LdapEntry>| {
            let in_scope = match scope {
                Scope::Base => e.dn == *base,
                Scope::OneLevel => e.dn.is_child_of(base),
                Scope::Subtree => e.dn.is_under(base),
            };
            if in_scope && filter.matches(e) {
                out.push(e);
            }
            out.len() < cap
        };
        let posting = self.filter_posting(filter);
        Self::count_read_path(&posting);
        match posting {
            ReadPath::Empty => {}
            ReadPath::Keys(Postings::One(key)) => {
                if let Some(e) = self.entries.get(key).filter(|_| in_block(key)) {
                    offer(e);
                }
            }
            ReadPath::Keys(Postings::Many(keys)) => {
                // Postings are ordered by the same root-first tree keys as
                // `entries`, so the block is a slice of the posting set.
                let own = keys.get(at.own()).filter(|_| !base.is_root());
                let rest = keys.range::<str, _>((Included(at.below.as_str()), Unbounded));
                for key in own.into_iter().chain(rest.take_while(|k| in_block(k))) {
                    if self.entries.get(key).is_some_and(|e| !offer(e)) {
                        break;
                    }
                }
            }
            ReadPath::Unindexed => {
                let range = self
                    .entries
                    .range::<str, _>((Included(at.own()), Unbounded));
                for (_, e) in range.take_while(|(k, _)| in_block(k)) {
                    if !offer(e) {
                        break;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Reference implementation of [`Dit::search`]: a linear scan over
    /// every entry, ignoring both indexes. Retained as the oracle the
    /// property tests and `tests/read_path_index.rs` compare against.
    pub fn search_scan(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &LdapFilter,
        size_limit: usize,
    ) -> Result<Vec<&Arc<LdapEntry>>, DitError> {
        if !base.is_root() && !self.contains(base) {
            return Err(DitError::NoSuchObject(base.to_string()));
        }
        let mut out = Vec::new();
        for e in self.entries.values() {
            let in_scope = match scope {
                Scope::Base => e.dn == *base,
                Scope::OneLevel => e.dn.is_child_of(base),
                Scope::Subtree => e.dn.is_under(base),
            };
            if in_scope && filter.matches(e) {
                out.push(e);
                if size_limit > 0 && out.len() >= size_limit {
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Iterate all entries (diagnostics, persistence), root-first.
    pub fn iter(&self) -> impl Iterator<Item = &LdapEntry> {
        self.entries.values().map(Arc::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> Dit {
        let mut d = Dit::new();
        d.add(
            LdapEntry::new(Dn::parse("o=emory").unwrap())
                .with("objectClass", "organization")
                .with("o", "emory"),
        )
        .unwrap();
        d.add(
            LdapEntry::new(Dn::parse("ou=mathcs,o=emory").unwrap())
                .with("objectClass", "organizationalUnit")
                .with("ou", "mathcs"),
        )
        .unwrap();
        d.add(
            LdapEntry::new(Dn::parse("cn=mokey,ou=mathcs,o=emory").unwrap())
                .with("objectClass", "device")
                .with("cn", "mokey"),
        )
        .unwrap();
        d
    }

    #[test]
    fn add_requires_parent() {
        let mut d = Dit::new();
        let orphan = LdapEntry::new(Dn::parse("cn=x,ou=nowhere,o=gone").unwrap());
        assert!(matches!(d.add(orphan), Err(DitError::NoSuchParent(_))));
        // Suffix at depth 1 is fine.
        assert!(d.add(LdapEntry::new(Dn::parse("o=emory").unwrap())).is_ok());
    }

    #[test]
    fn add_rejects_duplicate() {
        let mut d = seeded();
        let dup = LdapEntry::new(Dn::parse("O=EMORY").unwrap());
        assert!(matches!(d.add(dup), Err(DitError::AlreadyExists(_))));
    }

    #[test]
    fn delete_leaf_only() {
        let mut d = seeded();
        let ou = Dn::parse("ou=mathcs,o=emory").unwrap();
        assert!(matches!(
            d.delete(&ou),
            Err(DitError::NotAllowedOnNonLeaf(_))
        ));
        d.delete(&Dn::parse("cn=mokey,ou=mathcs,o=emory").unwrap())
            .unwrap();
        d.delete(&ou).unwrap();
        assert_eq!(d.len(), 1);
        assert!(matches!(d.delete(&ou), Err(DitError::NoSuchObject(_))));
    }

    #[test]
    fn scoped_search() {
        let d = seeded();
        let base = Dn::parse("o=emory").unwrap();
        let all = LdapFilter::match_all();

        let hits = d.search(&base, Scope::Base, &all, 0).unwrap();
        assert_eq!(hits.len(), 1);

        let hits = d.search(&base, Scope::OneLevel, &all, 0).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn.to_string(), "ou=mathcs,o=emory");

        let hits = d.search(&base, Scope::Subtree, &all, 0).unwrap();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn search_filter_and_limit() {
        let d = seeded();
        let base = Dn::parse("o=emory").unwrap();
        let f = LdapFilter::parse("(objectClass=device)").unwrap();
        let hits = d.search(&base, Scope::Subtree, &f, 0).unwrap();
        assert_eq!(hits.len(), 1);
        let all = LdapFilter::match_all();
        let hits = d.search(&base, Scope::Subtree, &all, 2).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn search_missing_base_errors() {
        let d = seeded();
        let err = d
            .search(
                &Dn::parse("o=nowhere").unwrap(),
                Scope::Subtree,
                &LdapFilter::match_all(),
                0,
            )
            .unwrap_err();
        assert!(matches!(err, DitError::NoSuchObject(_)));
    }

    #[test]
    fn modify_rdn_renames_leaf() {
        let mut d = seeded();
        let old = Dn::parse("cn=mokey,ou=mathcs,o=emory").unwrap();
        let new_dn = d.modify_rdn(&old, Rdn::new("cn", "monkey")).unwrap();
        assert_eq!(new_dn.to_string(), "cn=monkey,ou=mathcs,o=emory");
        assert!(!d.contains(&old));
        let e = d.get(&new_dn).unwrap();
        assert!(e.has_value("cn", "monkey"), "RDN value added to entry");
    }

    #[test]
    fn modify_rdn_conflicts_and_nonleaf() {
        let mut d = seeded();
        d.add(
            LdapEntry::new(Dn::parse("cn=taken,ou=mathcs,o=emory").unwrap())
                .with("objectClass", "device")
                .with("cn", "taken"),
        )
        .unwrap();
        let mokey = Dn::parse("cn=mokey,ou=mathcs,o=emory").unwrap();
        assert!(matches!(
            d.modify_rdn(&mokey, Rdn::new("cn", "taken")),
            Err(DitError::AlreadyExists(_))
        ));
        let ou = Dn::parse("ou=mathcs,o=emory").unwrap();
        assert!(matches!(
            d.modify_rdn(&ou, Rdn::new("ou", "x")),
            Err(DitError::NotAllowedOnNonLeaf(_))
        ));
    }

    #[test]
    fn update_replaces_content() {
        let mut d = seeded();
        let dn = Dn::parse("cn=mokey,ou=mathcs,o=emory").unwrap();
        let mut e = d.get(&dn).unwrap().clone();
        e.add_value("description", "test monkey");
        d.update(e).unwrap();
        assert_eq!(
            d.get(&dn).unwrap().first("description"),
            Some("test monkey")
        );
        let ghost = LdapEntry::new(Dn::parse("cn=ghost,o=emory").unwrap());
        assert!(matches!(d.update(ghost), Err(DitError::NoSuchObject(_))));
    }

    #[test]
    fn a_posting_is_a_set_only_while_several_entries_hold_it() {
        let mut d = seeded();
        let held = |d: &Dit| match d.eq_index.get("objectclass", "DEVICE") {
            None => 0,
            Some(Postings::One(_)) => 1,
            Some(Postings::Many(keys)) => 10 + keys.len(),
        };
        assert_eq!(held(&d), 1, "one holder: its key, no set");
        let second = Dn::parse("cn=second,ou=mathcs,o=emory").unwrap();
        d.add(LdapEntry::new(second.clone()).with("objectClass", "device"))
            .unwrap();
        assert_eq!(held(&d), 12, "a second holder makes it a set");
        // The posting shares the map's key; it does not copy it.
        let (key, _) = d.entries.get_key_value(TreeKey::of(&second).own()).unwrap();
        assert_eq!(Arc::strong_count(key), 2);

        d.delete(&second).unwrap();
        assert_eq!(held(&d), 1, "back to one holder, back to its key");
        let first = Dn::parse("cn=mokey,ou=mathcs,o=emory").unwrap();
        let f = LdapFilter::parse("(objectClass=device)").unwrap();
        assert!(d.search_base(&first, &f).unwrap().is_some(), "the first's");
        d.delete(&first).unwrap();
        assert_eq!(held(&d), 0, "no holder, no posting");
        assert!(!d.eq_index.by_attr.contains_key("cn"), "nor an empty map");
    }
}
