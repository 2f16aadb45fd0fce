//! Secondary indexes over registered service items.
//!
//! [`ServiceIndex`] maintains posting sets keyed by service type, entry
//! class, and `(class, field, value)` so template lookups resolve by
//! intersecting a few small sets instead of scanning every item. The
//! postings are *supersets* of the true match set: a candidate drawn from
//! them must still be verified with [`ServiceTemplate::matches`], which
//! keeps the index logic simple (it only has to never miss a match) and
//! the matching semantics in exactly one place.
//!
//! Coherence rule: every mutation of the item map (`register`,
//! `set_attributes`, lease cancel/expiry) moves the id's postings from the
//! *old* item to the *new* one ([`ServiceIndex::replace`]) under the same
//! write lock. The index therefore never refers to a service id absent
//! from the item map. (It does refer to items whose lease has lapsed but
//! which no sweep has reclaimed yet: the registrar's reads skip those.)

use std::collections::{BTreeSet, HashMap};

use crate::id::ServiceId;
use crate::item::ServiceItem;
use crate::template::ServiceTemplate;

/// The ids of the items one key selects. `BTreeSet` makes candidate
/// enumeration (and hence `lookup_all`) deterministic in service-id order.
pub(crate) type Posting = BTreeSet<ServiceId>;

/// What a key no item carries selects.
static NO_ITEMS: Posting = BTreeSet::new();

/// Posting sets for the registrar's read path. Every map is keyed by an
/// owned `String` and probed with a borrowed `&str`, so a read clones no
/// key and a write clones one only when it opens a posting.
#[derive(Debug, Default)]
pub(crate) struct ServiceIndex {
    /// service type name → ids of items whose stub implements it.
    by_type: HashMap<String, Posting>,
    /// entry class → ids of items carrying an entry of that class.
    by_class: HashMap<String, Posting>,
    /// entry class → field → value → ids of items with a matching entry
    /// field.
    by_field: HashMap<String, HashMap<String, HashMap<String, Posting>>>,
}

/// `map[key]`, opened empty (the one place a key is cloned) if absent.
fn open<'m, V: Default>(map: &'m mut HashMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), V::default());
    }
    map.get_mut(key).expect("present or just opened")
}

/// Take `id` out of `map[key]`, dropping the posting if that empties it,
/// so long-lived registrars don't accumulate dead keys. Whether `map` is
/// empty afterwards.
fn unfile(map: &mut HashMap<String, Posting>, key: &str, id: ServiceId) -> bool {
    if let Some(posting) = map.get_mut(key) {
        posting.remove(&id);
        if posting.is_empty() {
            map.remove(key);
        }
    }
    map.is_empty()
}

fn has_class(item: &ServiceItem, class: &str) -> bool {
    item.attribute_sets.iter().any(|e| e.class == class)
}

fn has_field(item: &ServiceItem, class: &str, field: &str, value: &str) -> bool {
    item.attribute_sets
        .iter()
        .any(|e| e.class == class && e.fields.get(field).is_some_and(|v| v == value))
}

impl ServiceIndex {
    /// Move `id`'s postings from `old` (what it was registered as, if
    /// anything) to `new` (what it is now, if anything). A posting both
    /// select is left alone, so an overwrite that keeps an item's types and
    /// entries — a lock register's, say — touches no posting at all.
    pub(crate) fn replace(
        &mut self,
        id: ServiceId,
        old: Option<&ServiceItem>,
        new: Option<&ServiceItem>,
    ) {
        if let Some(old) = old {
            self.remove(id, old, new);
        }
        if let Some(new) = new {
            self.insert(id, new, old);
        }
    }

    /// Add `item` (registered under `id`) to every relevant posting set
    /// that `filed` (what `id` was filed as) does not already select.
    fn insert(&mut self, id: ServiceId, item: &ServiceItem, filed: Option<&ServiceItem>) {
        for t in &item.service.type_names {
            if !filed.is_some_and(|f| f.service.implements(t)) {
                open(&mut self.by_type, t).insert(id);
            }
        }
        for entry in &item.attribute_sets {
            let class = entry.class.as_str();
            if !filed.is_some_and(|f| has_class(f, class)) {
                open(&mut self.by_class, class).insert(id);
            }
            for (field, value) in &entry.fields {
                if filed.is_some_and(|f| has_field(f, class, field, value)) {
                    continue;
                }
                open(open(open(&mut self.by_field, class), field), value).insert(id);
            }
        }
    }

    /// Remove `item` from every posting set that `kept` (what `id` is about
    /// to be filed as) does not also select.
    fn remove(&mut self, id: ServiceId, item: &ServiceItem, kept: Option<&ServiceItem>) {
        for t in &item.service.type_names {
            if !kept.is_some_and(|k| k.service.implements(t)) {
                unfile(&mut self.by_type, t, id);
            }
        }
        for entry in &item.attribute_sets {
            let class = entry.class.as_str();
            if !kept.is_some_and(|k| has_class(k, class)) {
                unfile(&mut self.by_class, class, id);
            }
            for (field, value) in &entry.fields {
                if kept.is_some_and(|k| has_field(k, class, field, value)) {
                    continue;
                }
                let Some(fields) = self.by_field.get_mut(class) else {
                    break;
                };
                if let Some(values) = fields.get_mut(field.as_str()) {
                    if unfile(values, value, id) {
                        fields.remove(field.as_str());
                    }
                }
                if fields.is_empty() {
                    self.by_field.remove(class);
                }
            }
        }
    }

    /// The smallest posting some constraint of `template` selects, or
    /// `None` when the template carries no indexable constraint (wildcard
    /// → caller scans).
    ///
    /// Every item `template` matches is in it, in ascending service-id
    /// order; not every item in it need match, so callers verify each
    /// candidate with `template.matches`. An explicit `service_id`
    /// constraint is the caller's fast path and not handled here.
    pub(crate) fn candidates(&self, template: &ServiceTemplate) -> Option<&Posting> {
        fn narrow<'a>(best: &mut Option<&'a Posting>, posting: Option<&'a Posting>) {
            let posting = posting.unwrap_or(&NO_ITEMS);
            if best.is_none_or(|b| posting.len() < b.len()) {
                *best = Some(posting);
            }
        }
        let mut best = None;
        for t in &template.service_types {
            narrow(&mut best, self.by_type.get(t.as_str()));
        }
        for tmpl in &template.attribute_templates {
            // An equality field's (class, field, value) posting; an entry
            // template with wildcard fields only falls back to its class.
            let mut has_equality = false;
            for (field, value) in &tmpl.fields {
                let Some(value) = value else { continue };
                has_equality = true;
                narrow(
                    &mut best,
                    self.by_field
                        .get(tmpl.class.as_str())
                        .and_then(|fields| fields.get(field.as_str()))
                        .and_then(|values| values.get(value.as_str())),
                );
            }
            if !has_equality {
                narrow(&mut best, self.by_class.get(tmpl.class.as_str()));
            }
        }
        best
    }

    #[cfg(test)]
    fn posting_count(&self) -> usize {
        let fields: usize = self
            .by_field
            .values()
            .flat_map(|fields| fields.values())
            .map(|values| values.len())
            .sum();
        self.by_type.len() + self.by_class.len() + fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{Entry, ServiceStub};
    use crate::template::EntryTemplate;

    fn item(id: u64, types: &[&str], entries: Vec<Entry>) -> (ServiceId, ServiceItem) {
        let sid = ServiceId::new(id, id);
        let mut it = ServiceItem::new(ServiceStub::new(
            types.iter().map(|t| t.to_string()).collect(),
            vec![],
        ))
        .with_id(sid);
        it.attribute_sets = entries;
        (sid, it)
    }

    fn ids(posting: Option<&Posting>) -> Option<Vec<ServiceId>> {
        posting.map(|p| p.iter().copied().collect())
    }

    #[test]
    fn wildcard_template_has_no_plan() {
        let idx = ServiceIndex::default();
        assert_eq!(idx.candidates(&ServiceTemplate::any()), None);
    }

    #[test]
    fn the_smallest_posting_of_a_type_and_a_field_is_chosen() {
        let mut idx = ServiceIndex::default();
        let (a, ia) = item(1, &["Printer"], vec![Entry::name("laser")]);
        let (b, ib) = item(2, &["Printer"], vec![Entry::name("inkjet")]);
        let (c, ic) = item(3, &["Scanner"], vec![Entry::name("laser")]);
        let (d, id) = item(4, &["Printer"], vec![Entry::name("dot")]);
        idx.insert(a, &ia, None);
        idx.insert(b, &ib, None);
        idx.insert(c, &ic, None);
        idx.insert(d, &id, None);

        // Printer selects 3, name=laser 2: the candidates are laser's, a
        // superset of the one match, which the caller's verify leaves.
        let t = ServiceTemplate::by_type("Printer")
            .with_entry(EntryTemplate::new("Name").with("name", "laser"));
        assert_eq!(ids(idx.candidates(&t)), Some(vec![a, c]));

        let t = ServiceTemplate::by_type("Printer");
        assert_eq!(ids(idx.candidates(&t)), Some(vec![a, b, d]));

        // Unknown type short-circuits to empty.
        let t = ServiceTemplate::by_type("Fax");
        assert_eq!(ids(idx.candidates(&t)), Some(Vec::new()));
        let t = ServiceTemplate::by_type("Printer").with_type("Fax");
        assert_eq!(ids(idx.candidates(&t)), Some(Vec::new()));
    }

    #[test]
    fn wildcard_field_uses_class_posting() {
        let mut idx = ServiceIndex::default();
        let (a, ia) = item(1, &["S"], vec![Entry::name("x")]);
        idx.insert(a, &ia, None);
        // with_any("name") has no equality field → class posting (a superset:
        // it would also admit Name entries lacking the field).
        let t = ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with_any("name"));
        assert_eq!(ids(idx.candidates(&t)), Some(vec![a]));
    }

    #[test]
    fn remove_drains_postings() {
        let mut idx = ServiceIndex::default();
        let (a, ia) = item(1, &["S"], vec![Entry::name("x").with("loc", "y")]);
        idx.insert(a, &ia, None);
        assert!(idx.posting_count() > 0);
        idx.replace(a, Some(&ia), None);
        assert_eq!(idx.posting_count(), 0, "empty posting sets are dropped");
        assert!(idx.by_field.is_empty(), "and the field maps that held them");
    }

    #[test]
    fn an_overwrite_moves_only_the_postings_that_differ() {
        let mut idx = ServiceIndex::default();
        let (a, old) = item(1, &["S", "T"], vec![Entry::name("x").with("loc", "y")]);
        let (_, new) = item(1, &["S", "U"], vec![Entry::name("x").with("loc", "z")]);
        idx.insert(a, &old, None);
        idx.replace(a, Some(&old), Some(&new));
        let name = |value: &str| {
            ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with("name", value))
        };
        let loc = |value: &str| {
            ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with("loc", value))
        };
        for (template, want) in [
            (ServiceTemplate::by_type("S"), vec![a]),
            (ServiceTemplate::by_type("T"), vec![]),
            (ServiceTemplate::by_type("U"), vec![a]),
            (name("x"), vec![a]),
            (loc("y"), vec![]),
            (loc("z"), vec![a]),
        ] {
            assert_eq!(ids(idx.candidates(&template)), Some(want), "{template:?}");
        }
        // S, U, Name, name=x, loc=z.
        assert_eq!(idx.posting_count(), 5);
    }
}
