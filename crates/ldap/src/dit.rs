//! The Directory Information Tree.
//!
//! Entries keyed by normalized DN, with structural invariants enforced:
//! an entry's parent must exist (except suffixes at the tree root) and only
//! leaf entries can be deleted.
//!
//! Read-path layout: the entry map is keyed by the *root-first* normalized
//! DN (RDNs reversed, joined with an unprintable separator), so every
//! subtree is one contiguous key range and `OneLevel`/`Subtree` searches
//! are bounded range scans instead of full-tree walks. An equality index
//! over `(attribute, value)` pairs additionally lets searches whose filter
//! contains an equality conjunct start from the posting set instead of the
//! scope range — and, because postings are ordered by the same tree keys,
//! only from the slice of it under the search base. Both structures only
//! *prune*: every candidate is still verified with the real scope predicate
//! and `LdapFilter::matches`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use crate::dn::{Dn, Rdn};
use crate::entry::LdapEntry;
use crate::filter::LdapFilter;

/// Separator between RDNs in root-first tree keys. An information
/// separator that normal DN text never contains; even if a value smuggles
/// one in, candidates are re-verified against the actual `Dn`, so the
/// range scan stays a pruning step rather than a correctness assumption.
const KEY_SEP: char = '\u{1f}';

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

/// The best read strategy the equality index offers for a filter.
enum Posting<'a> {
    /// No equality conjunct indexed — fall back to the scope range scan.
    Unindexed,
    /// An equality conjunct nothing satisfies — the result is empty.
    Empty,
    /// Candidate tree keys (a superset of the matches).
    Keys(&'a BTreeSet<String>),
}

/// `[index, scan]` read-path counters, resolved once per process.
fn read_path_counters() -> &'static [Arc<rndi_obs::metrics::Counter>; 2] {
    static COUNTERS: OnceLock<[Arc<rndi_obs::metrics::Counter>; 2]> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let name = rndi_obs::metrics::names::INDEX_READS;
        [
            rndi_obs::metrics::counter(name, &[("server", "dirserv"), ("path", "index")]),
            rndi_obs::metrics::counter(name, &[("server", "dirserv"), ("path", "scan")]),
        ]
    })
}

/// The tree. BTreeMap keeps deterministic enumeration order (root-first).
#[derive(Default, Debug, Clone)]
pub struct Dit {
    /// Root-first tree key → entry; each subtree is a contiguous range.
    entries: BTreeMap<String, LdapEntry>,
    /// `(attr lowercase, value lowercase)` → tree keys of entries holding
    /// that value. Maintained by every mutation, alongside `entries`.
    eq_index: HashMap<(String, String), BTreeSet<String>>,
}

impl Dit {
    pub fn new() -> Self {
        Dit::default()
    }

    /// Root-first map key: `o=emory` before its whole subtree, which makes
    /// the subtree a contiguous `entries` range.
    fn tree_key(dn: &Dn) -> String {
        let rdns = dn.rdns();
        let mut key =
            String::with_capacity(rdns.iter().map(|r| r.attr.len() + r.value.len() + 2).sum());
        for (i, rdn) in rdns.iter().rev().enumerate() {
            if i > 0 {
                key.push(KEY_SEP);
            }
            rdn.write_normalized(&mut key);
        }
        key
    }

    fn index_entry(&mut self, key: &str, entry: &LdapEntry) {
        for attr in entry.attrs() {
            let id = attr.id.to_ascii_lowercase();
            for value in &attr.values {
                self.eq_index
                    .entry((id.clone(), value.to_ascii_lowercase()))
                    .or_default()
                    .insert(key.to_string());
            }
        }
    }

    fn unindex_entry(&mut self, key: &str, entry: &LdapEntry) {
        for attr in entry.attrs() {
            let id = attr.id.to_ascii_lowercase();
            for value in &attr.values {
                let ik = (id.clone(), value.to_ascii_lowercase());
                if let Some(set) = self.eq_index.get_mut(&ik) {
                    set.remove(key);
                    if set.is_empty() {
                        self.eq_index.remove(&ik);
                    }
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn contains(&self, dn: &Dn) -> bool {
        self.entries.contains_key(&Self::tree_key(dn))
    }

    pub fn get(&self, dn: &Dn) -> Option<&LdapEntry> {
        self.entries.get(&Self::tree_key(dn))
    }

    /// Add an entry. The parent must already exist unless the entry is a
    /// suffix (depth 1) or the root itself.
    pub fn add(&mut self, entry: LdapEntry) -> Result<(), DitError> {
        let key = Self::tree_key(&entry.dn);
        if self.entries.contains_key(&key) {
            return Err(DitError::AlreadyExists(entry.dn.to_string()));
        }
        if let Some(parent) = entry.dn.parent() {
            if !parent.is_root() && !self.contains(&parent) {
                return Err(DitError::NoSuchParent(parent.to_string()));
            }
        }
        self.index_entry(&key, &entry);
        self.entries.insert(key, entry);
        Ok(())
    }

    /// Delete a leaf entry.
    pub fn delete(&mut self, dn: &Dn) -> Result<LdapEntry, DitError> {
        let key = Self::tree_key(dn);
        if !self.entries.contains_key(&key) {
            return Err(DitError::NoSuchObject(dn.to_string()));
        }
        if self.has_children(dn) {
            return Err(DitError::NotAllowedOnNonLeaf(dn.to_string()));
        }
        let entry = self.entries.remove(&key).expect("checked present");
        self.unindex_entry(&key, &entry);
        Ok(entry)
    }

    /// Whether the entry has any children.
    ///
    /// A range probe over the entry's key block: because parents must exist
    /// and only leaves can be deleted, any descendant implies a direct
    /// child, so probing for *descendants* answers the child question.
    pub fn has_children(&self, dn: &Dn) -> bool {
        if dn.is_root() {
            return self.entries.keys().any(|k| !k.is_empty());
        }
        let mut prefix = Self::tree_key(dn);
        prefix.push(KEY_SEP);
        self.entries
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .any(|(_, e)| e.dn != *dn && e.dn.is_under(dn))
    }

    /// Put `entry` at its DN: over the leaf entry already there, or as a
    /// new entry under an existing parent. On any error the tree is as it
    /// was.
    pub fn replace(&mut self, entry: LdapEntry) -> Result<(), DitError> {
        if !self.contains(&entry.dn) {
            return self.add(entry);
        }
        if self.has_children(&entry.dn) {
            return Err(DitError::NotAllowedOnNonLeaf(entry.dn.to_string()));
        }
        self.update(entry)
    }

    /// Replace an entry's content in place (same DN).
    pub fn update(&mut self, entry: LdapEntry) -> Result<(), DitError> {
        let key = Self::tree_key(&entry.dn);
        if !self.entries.contains_key(&key) {
            return Err(DitError::NoSuchObject(entry.dn.to_string()));
        }
        if let Some(old) = self.entries.remove(&key) {
            self.unindex_entry(&key, &old);
        }
        self.index_entry(&key, &entry);
        self.entries.insert(key, entry);
        Ok(())
    }

    /// Rename a leaf entry's RDN (LDAP `modifyRDN`).
    pub fn modify_rdn(&mut self, dn: &Dn, new_rdn: Rdn) -> Result<Dn, DitError> {
        if self.has_children(dn) {
            return Err(DitError::NotAllowedOnNonLeaf(dn.to_string()));
        }
        let parent = dn.parent().unwrap_or_else(Dn::root);
        let new_dn = parent.child(new_rdn.clone());
        if self.contains(&new_dn) {
            return Err(DitError::AlreadyExists(new_dn.to_string()));
        }
        let mut entry = self.delete(dn)?;
        entry.dn = new_dn.clone();
        // The new RDN's attribute value must be present on the entry.
        if !entry.has_value(&new_rdn.attr, &new_rdn.value) {
            entry.add_value(&new_rdn.attr, new_rdn.value.clone());
        }
        let new_key = Self::tree_key(&new_dn);
        self.index_entry(&new_key, &entry);
        self.entries.insert(new_key, entry);
        Ok(new_dn)
    }

    /// The most selective indexed read strategy for `filter`: the smallest
    /// equality posting among conjuncts that *must* hold for a match.
    /// Recurses through `And` only — `Or`/`Not` arms don't constrain the
    /// candidate set.
    fn filter_posting(&self, filter: &LdapFilter) -> Posting<'_> {
        match filter {
            LdapFilter::Equality(attr, value) => {
                match self
                    .eq_index
                    .get(&(attr.to_ascii_lowercase(), value.to_ascii_lowercase()))
                {
                    Some(set) => Posting::Keys(set),
                    None => Posting::Empty,
                }
            }
            LdapFilter::And(fs) => {
                let mut best = Posting::Unindexed;
                for f in fs {
                    match self.filter_posting(f) {
                        Posting::Empty => return Posting::Empty,
                        Posting::Keys(set) => {
                            best = match best {
                                Posting::Keys(b) if b.len() <= set.len() => Posting::Keys(b),
                                _ => Posting::Keys(set),
                            };
                        }
                        Posting::Unindexed => {}
                    }
                }
                best
            }
            _ => Posting::Unindexed,
        }
    }

    /// Count which read path serves a search with this posting: a
    /// posting-set walk (index) or the scope range scan. Handles are cached
    /// in a static so the hot path pays one atomic increment, not a
    /// registry lock.
    fn count_read_path(posting: &Posting<'_>) {
        let [index_reads, scan_reads] = read_path_counters();
        if matches!(posting, Posting::Unindexed) {
            scan_reads.inc();
        } else {
            index_reads.inc();
        }
    }

    /// A `Base`-scope search: the entry at `base` when it matches `filter`.
    /// One keyed probe; the hit is still verified against the exact
    /// (case-preserving) DN and the full filter, as every candidate of
    /// [`Dit::search`] is.
    pub fn search_base(
        &self,
        base: &Dn,
        filter: &LdapFilter,
    ) -> Result<Option<&LdapEntry>, DitError> {
        let base_key = Self::tree_key(base);
        let at_base = self.entries.get(&base_key);
        if at_base.is_none() && !base.is_root() {
            return Err(DitError::NoSuchObject(base.to_string()));
        }
        let posting = self.filter_posting(filter);
        Self::count_read_path(&posting);
        let pruned = match posting {
            Posting::Unindexed => false,
            Posting::Empty => true,
            Posting::Keys(keys) => !keys.contains(&base_key),
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
    pub fn search(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &LdapFilter,
        size_limit: usize,
    ) -> Result<Vec<&LdapEntry>, DitError> {
        if scope == Scope::Base {
            return Ok(self.search_base(base, filter)?.into_iter().collect());
        }
        let base_key = Self::tree_key(base);
        if !base.is_root() && !self.entries.contains_key(&base_key) {
            return Err(DitError::NoSuchObject(base.to_string()));
        }
        let in_scope = |e: &LdapEntry| match scope {
            Scope::Base => e.dn == *base,
            Scope::OneLevel => e.dn.is_child_of(base),
            Scope::Subtree => e.dn.is_under(base),
        };
        let cap = if size_limit == 0 {
            usize::MAX
        } else {
            size_limit
        };
        let mut prefix = base_key.clone();
        prefix.push(KEY_SEP);
        let mut out = Vec::new();
        let posting = self.filter_posting(filter);
        Self::count_read_path(&posting);
        match posting {
            Posting::Empty => {}
            Posting::Keys(keys) => {
                // Postings are ordered by the same root-first tree keys as
                // `entries`, so under a non-root base only the base's own
                // key and its contiguous `base + KEY_SEP` range can be in
                // scope — not the whole posting set.
                let candidates: Box<dyn Iterator<Item = &String>> = if base.is_root() {
                    Box::new(keys.iter())
                } else {
                    Box::new(
                        keys.get(&base_key).into_iter().chain(
                            keys.range::<String, _>(&prefix..)
                                .take_while(|k| k.starts_with(&prefix)),
                        ),
                    )
                };
                for key in candidates {
                    let Some(e) = self.entries.get(key) else {
                        continue;
                    };
                    if in_scope(e) && filter.matches(e) {
                        out.push(e);
                        if out.len() >= cap {
                            break;
                        }
                    }
                }
            }
            Posting::Unindexed if base.is_root() => {
                for e in self.entries.values() {
                    if in_scope(e) && filter.matches(e) {
                        out.push(e);
                        if out.len() >= cap {
                            break;
                        }
                    }
                }
            }
            Posting::Unindexed => {
                let range = self
                    .entries
                    .range::<String, _>(&base_key..)
                    .take_while(|(k, _)| **k == base_key || k.starts_with(&prefix));
                for (_, e) in range {
                    if in_scope(e) && filter.matches(e) {
                        out.push(e);
                        if out.len() >= cap {
                            break;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Reference implementation of [`Dit::search`]: a linear scan over
    /// every entry, ignoring both indexes. Retained as the oracle the
    /// property tests and the `readpath_scale` bench compare against.
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
        self.entries.values()
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
}
