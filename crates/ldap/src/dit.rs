//! The Directory Information Tree.
//!
//! Entries keyed by normalized DN, with structural invariants enforced:
//! an entry's parent must exist (except suffixes at the tree root) and only
//! leaf entries can be deleted.
//!
//! Read-path layout: the entries are ordered by their *root-first* folded
//! tree key (`Dn::push_key`: RDNs reversed, joined with an unprintable
//! separator), so every subtree is one contiguous key range and
//! `OneLevel`/`Subtree` searches are bounded range scans instead of
//! full-tree walks. An equality index over `(attribute, value)` pairs, but
//! for the types in `UNFILED`, lets searches whose filter holds an equality
//! conjunct on a filed type start from the posting set instead of the scope
//! range — and, because postings are ordered by the same tree keys, only
//! from the slice of it under the search base. Both structures only
//! *prune*: every candidate is still verified with the real scope predicate
//! and `LdapFilter::matches`.
//!
//! Space: an entry is one block — tree key, DN and attributes — and the
//! tree, the entry's postings and every reader hold 16-byte handles to it
//! ([`LdapEntry`]); the index keys a value by a hash of it and holds no
//! copy of its text.

use std::borrow::Borrow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasher;
use std::ops::Bound::{Included, Unbounded};
use std::sync::{Arc, OnceLock};

use crate::dn::{Dn, Rdn, KEY_SEP};
use crate::entry::{fold, hash_folded, LdapEntry};
use crate::filter::LdapFilter;

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
        dn.push_key(&mut below);
        if !dn.is_root() {
            below.push(KEY_SEP);
        }
        TreeKey { below }
    }

    /// The DN's own key.
    fn own(&self) -> &str {
        self.below.strip_suffix(KEY_SEP).unwrap_or("")
    }
}

impl Drop for TreeKey {
    fn drop(&mut self) {
        let _ = KEY_TEXT.try_with(|text| text.set(std::mem::take(&mut self.below)));
    }
}

/// An entry as the tree and its postings hold it: ordered, and found, by
/// its tree key.
#[derive(Clone, Debug)]
struct Keyed(LdapEntry);

impl Keyed {
    fn key(&self) -> &str {
        self.0.key()
    }
}

impl Borrow<str> for Keyed {
    fn borrow(&self) -> &str {
        self.key()
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(other.key())
    }
}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Keyed {}

/// The entries holding one `(attribute, value)` pair, ordered as
/// `Dit::entries` is: handles to the blocks the tree holds, never a copy.
/// A pair one entry holds — a name — costs that entry's handle and no set.
#[derive(Debug, Clone)]
enum Postings {
    One(Keyed),
    /// Boxed so that a posting — one per distinct value — is the size of a
    /// handle.
    #[allow(clippy::box_collection)]
    Many(Box<BTreeSet<Keyed>>),
}

impl Postings {
    fn len(&self) -> usize {
        match self {
            Postings::One(_) => 1,
            Postings::Many(entries) => entries.len(),
        }
    }

    fn contains(&self, key: &str) -> bool {
        match self {
            Postings::One(only) => only.key() == key,
            Postings::Many(entries) => entries.contains(key),
        }
    }

    /// Files `entry`, or points the posting at it when it files an entry
    /// of the same key already: a posting holds the tree's own handle.
    fn insert(&mut self, entry: &LdapEntry) {
        let entry = Keyed(entry.clone());
        match self {
            Postings::One(only) if *only == entry => *only = entry,
            Postings::One(only) => {
                *self = Postings::Many(Box::new(BTreeSet::from([only.clone(), entry])));
            }
            Postings::Many(entries) => {
                entries.replace(entry);
            }
        }
    }

    /// Drops `key`; `true` when that leaves no holder and the posting
    /// itself has to go.
    fn remove(&mut self, key: &str) -> bool {
        match self {
            Postings::One(only) => only.key() == key,
            Postings::Many(entries) => {
                entries.remove(key);
                if entries.len() == 1 {
                    *self = Postings::One(entries.pop_first().expect("one entry left"));
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

    fn insert(&mut self, attr: &str, value: u64, entry: &LdapEntry) {
        let attr = fold(attr);
        if !self.by_attr.contains_key(attr.as_ref()) {
            self.by_attr.insert(attr.as_ref().into(), HashMap::new());
        }
        let by_value = self.by_attr.get_mut(attr.as_ref()).expect("present");
        match by_value.get_mut(&value) {
            Some(postings) => postings.insert(entry),
            None => {
                by_value.insert(value, Postings::One(Keyed(entry.clone())));
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
    /// Candidate entries (a superset of the matches).
    Keys(&'a Postings),
}

/// The tree. A `BTreeSet` keeps deterministic enumeration order
/// (root-first).
#[derive(Default, Debug, Clone)]
pub struct Dit {
    /// The entries, by root-first tree key; each subtree is a contiguous
    /// range.
    entries: BTreeSet<Keyed>,
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
        self.entries.contains(TreeKey::of(dn).own())
    }

    pub fn get(&self, dn: &Dn) -> Option<&LdapEntry> {
        self.entries.get(TreeKey::of(dn).own()).map(|e| &e.0)
    }

    /// Add an entry. The parent must already exist unless the entry is a
    /// suffix (depth 1) or the root itself.
    pub fn add(&mut self, entry: LdapEntry) -> Result<(), DitError> {
        let dn = entry.dn();
        if self.entries.contains(entry.key()) {
            return Err(DitError::AlreadyExists(dn.to_string()));
        }
        if let Some(parent) = dn.parent() {
            if !parent.is_root() && !self.contains(&parent) {
                return Err(DitError::NoSuchParent(parent.to_string()));
            }
        }
        self.put(entry);
        Ok(())
    }

    /// Store `entry`, and file its pairs.
    fn put(&mut self, entry: LdapEntry) {
        for (attr, value) in filed_pairs(&entry) {
            let value = self.eq_index.key(value);
            self.eq_index.insert(attr, value, &entry);
        }
        self.entries.insert(Keyed(entry));
    }

    /// Delete a leaf entry.
    pub fn delete(&mut self, dn: &Dn) -> Result<LdapEntry, DitError> {
        let at = TreeKey::of(dn);
        if !self.entries.contains(at.own()) {
            return Err(DitError::NoSuchObject(dn.to_string()));
        }
        if self.has_children(&at, dn) {
            return Err(DitError::NotAllowedOnNonLeaf(dn.to_string()));
        }
        Ok(self.take(at.own()).expect("checked present"))
    }

    /// Remove the entry at `key`, and its postings, whatever is below it.
    fn take(&mut self, key: &str) -> Option<LdapEntry> {
        let Keyed(entry) = self.entries.take(key)?;
        for (attr, value) in filed_pairs(&entry) {
            let value = self.eq_index.key(value);
            self.eq_index.remove(attr, value, key);
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
            .take_while(|e| e.key().starts_with(&at.below))
            .any(|e| {
                let below = e.0.dn();
                below != *dn && below.is_under(dn)
            })
    }

    /// Put `entry` at its DN: over the leaf entry already there, or as a
    /// new entry under an existing parent. On any error the tree is as it
    /// was.
    pub fn replace(&mut self, entry: LdapEntry) -> Result<(), DitError> {
        if !self.entries.contains(entry.key()) {
            return self.add(entry);
        }
        let dn = entry.dn();
        if self.has_children(&TreeKey::of(&dn), &dn) {
            return Err(DitError::NotAllowedOnNonLeaf(dn.to_string()));
        }
        self.update(entry)
    }

    /// Replace an entry's content in place (same DN).
    ///
    /// Only the filed `(attribute, value)` pairs that left are unfiled —
    /// compared as they are filed, so a value that changed case alone keeps
    /// its posting, and so does one whose hash another value of the
    /// attribute shares; every pair the entry holds then points at its new
    /// block.
    pub fn update(&mut self, entry: LdapEntry) -> Result<(), DitError> {
        if !self.entries.contains(entry.key()) {
            return Err(DitError::NoSuchObject(entry.dn().to_string()));
        }
        let Keyed(old) = self
            .entries
            .replace(Keyed(entry.clone()))
            .expect("checked present");
        let index = &mut self.eq_index;
        for (attr, value) in filed_pairs(&old).filter(|(a, v)| !entry.has_value(a, v)) {
            let value = index.key(value);
            if !index.files(&entry, attr, value) {
                index.remove(attr, value, entry.key());
            }
        }
        for (attr, value) in filed_pairs(&entry) {
            let value = index.key(value);
            index.insert(attr, value, &entry);
        }
        Ok(())
    }

    /// Rename a leaf entry's RDN (LDAP `modifyRDN`). The entry is checked
    /// before the name it would take: a missing one is `NoSuchObject`
    /// whatever is at the target.
    pub fn modify_rdn(&mut self, dn: &Dn, new_rdn: Rdn) -> Result<Dn, DitError> {
        let at = TreeKey::of(dn);
        if !self.entries.contains(at.own()) {
            return Err(DitError::NoSuchObject(dn.to_string()));
        }
        if self.has_children(&at, dn) {
            return Err(DitError::NotAllowedOnNonLeaf(dn.to_string()));
        }
        let parent = dn.parent().unwrap_or_else(Dn::root);
        let new_dn = parent.child(new_rdn.clone());
        if self.contains(&new_dn) {
            return Err(DitError::AlreadyExists(new_dn.to_string()));
        }
        let entry = self.take(at.own()).expect("checked present");
        let mut entry = entry.renamed(&new_dn);
        // The new RDN's attribute value must be present on the entry.
        if !entry.has_value(&new_rdn.attr, &new_rdn.value) {
            entry.add_value(&new_rdn.attr, new_rdn.value);
        }
        self.put(entry);
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
    ) -> Result<Option<&LdapEntry>, DitError> {
        let at = TreeKey::of(base);
        let at_base = self.entries.get(at.own()).map(|e| &e.0);
        if at_base.is_none() && !base.is_root() {
            return Err(DitError::NoSuchObject(base.to_string()));
        }
        let posting = self.filter_posting(filter);
        Self::count_read_path(&posting);
        let pruned = match posting {
            ReadPath::Unindexed => false,
            ReadPath::Empty => true,
            ReadPath::Keys(holders) => !holders.contains(at.own()),
        };
        Ok(at_base.filter(|e| !pruned && e.dn() == *base && filter.matches(e)))
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
    ) -> Result<Vec<&'a LdapEntry>, DitError> {
        if scope == Scope::Base {
            return Ok(self.search_base(base, filter)?.into_iter().collect());
        }
        let at = TreeKey::of(base);
        if !base.is_root() && !self.entries.contains(at.own()) {
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
        let mut offer = |e: &'a LdapEntry| {
            let dn = e.dn();
            let in_scope = match scope {
                Scope::Base => dn == *base,
                Scope::OneLevel => dn.is_child_of(base),
                Scope::Subtree => dn.is_under(base),
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
            ReadPath::Keys(Postings::One(only)) => {
                if in_block(only.key()) {
                    offer(&only.0);
                }
            }
            ReadPath::Keys(Postings::Many(holders)) => {
                // Postings are ordered by the same root-first tree keys as
                // `entries`, so the block is a slice of the posting set.
                let own = holders.get(at.own()).filter(|_| !base.is_root());
                let rest = holders.range::<str, _>((Included(at.below.as_str()), Unbounded));
                for e in own
                    .into_iter()
                    .chain(rest.take_while(|e| in_block(e.key())))
                {
                    if !offer(&e.0) {
                        break;
                    }
                }
            }
            ReadPath::Unindexed => {
                let range = self
                    .entries
                    .range::<str, _>((Included(at.own()), Unbounded));
                for e in range.take_while(|e| in_block(e.key())) {
                    if !offer(&e.0) {
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
    ) -> Result<Vec<&LdapEntry>, DitError> {
        if !base.is_root() && !self.contains(base) {
            return Err(DitError::NoSuchObject(base.to_string()));
        }
        let mut out = Vec::new();
        for e in self.iter() {
            let dn = e.dn();
            let in_scope = match scope {
                Scope::Base => dn == *base,
                Scope::OneLevel => dn.is_child_of(base),
                Scope::Subtree => dn.is_under(base),
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
        self.entries.iter().map(|e| &e.0)
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
        assert_eq!(hits[0].dn().to_string(), "ou=mathcs,o=emory");

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
            Some(Postings::Many(holders)) => 10 + holders.len(),
        };
        assert_eq!(held(&d), 1, "one holder: its key, no set");
        let second = Dn::parse("cn=second,ou=mathcs,o=emory").unwrap();
        d.add(LdapEntry::new(second.clone()).with("objectClass", "device"))
            .unwrap();
        assert_eq!(held(&d), 12, "a second holder makes it a set");
        // The posting holds the tree's own block; it does not copy it.
        let stored = d.get(&second).unwrap();
        let Some(Postings::Many(holders)) = d.eq_index.get("objectclass", "device") else {
            panic!("a set");
        };
        let filed = holders.get(TreeKey::of(&second).own()).unwrap();
        assert!(filed.0.shares_block_with(stored));

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
