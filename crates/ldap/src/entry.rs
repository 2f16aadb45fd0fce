//! Directory entries.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::Hasher;
use std::sync::Arc;

use crate::dn::Dn;

/// A multi-valued attribute (string values, per common LDAP usage). The
/// first value is held inline: a one-value attribute allocates no list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LdapAttr {
    /// Original-case identifier; a `Dit` shares one copy of each spelling
    /// among its entries.
    id: Arc<str>,
    value: Box<str>,
    more: Box<[Box<str>]>,
}

impl LdapAttr {
    /// The attribute `id` holding `values`, or `None` when there are none.
    fn new(id: Arc<str>, values: impl IntoIterator<Item = Box<str>>) -> Option<LdapAttr> {
        let mut values = values.into_iter();
        let (value, more) = (values.next()?, values.collect());
        Some(LdapAttr { id, value, more })
    }

    pub fn id(&self) -> &str {
        &self.id
    }

    pub fn values(&self) -> impl Iterator<Item = &str> {
        std::iter::once(&self.value).chain(&self.more).map(|v| &**v)
    }
}

/// An entry: a DN plus attributes, one per case-insensitive id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LdapEntry {
    pub dn: Dn,
    /// Sorted by case-folded id, which is never stored: lookups fold as
    /// they compare.
    attrs: Vec<LdapAttr>,
}

/// `s` in lower case (ASCII, as every comparison in this crate folds),
/// borrowed when it already is.
pub(crate) fn fold(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// The order of `fold(a)` and `fold(b)`, without making either.
pub(crate) fn cmp_folded(a: &str, b: &str) -> Ordering {
    let lower = |b: u8| b.to_ascii_lowercase();
    a.bytes().map(lower).cmp(b.bytes().map(lower))
}

/// Feed `fold(s)` to `state`, without making it: texts that fold alike
/// hash alike.
pub(crate) fn hash_folded(s: &str, state: &mut impl Hasher) {
    let mut folded = [0u8; 64];
    for chunk in s.as_bytes().chunks(folded.len()) {
        let folded = &mut folded[..chunk.len()];
        folded.copy_from_slice(chunk);
        folded.make_ascii_lowercase();
        state.write(folded);
    }
    state.write_u8(0xff);
}

impl LdapEntry {
    pub fn new(dn: Dn) -> Self {
        LdapEntry {
            dn,
            attrs: Vec::new(),
        }
    }

    /// Builder-style attribute insertion (adds a value).
    pub fn with(mut self, id: &str, value: impl Into<String>) -> Self {
        self.add_value(id, value);
        self
    }

    /// Where `id`'s attribute is (`Ok`) or would be inserted (`Err`).
    fn position(&self, id: &str) -> Result<usize, usize> {
        self.attrs.binary_search_by(|a| cmp_folded(&a.id, id))
    }

    pub fn add_value(&mut self, id: &str, value: impl Into<String>) {
        let value = value.into().into_boxed_str();
        match self.position(id) {
            Ok(at) => {
                let held = &mut self.attrs[at];
                let mut more = std::mem::take(&mut held.more).into_vec();
                more.push(value);
                held.more = more.into();
            }
            Err(at) => {
                let (id, more) = (id.into(), Box::default());
                self.attrs.insert(at, LdapAttr { id, value, more });
            }
        }
    }

    /// Replace an attribute's values wholesale; empty removes it.
    pub fn replace(&mut self, id: &str, values: Vec<String>) {
        let values = values.into_iter().map(String::into_boxed_str);
        match (self.position(id), LdapAttr::new(id.into(), values)) {
            (Ok(at), Some(attr)) => self.attrs[at] = attr,
            (Ok(at), None) => drop(self.attrs.remove(at)),
            (Err(at), Some(attr)) => self.attrs.insert(at, attr),
            (Err(_), None) => {}
        }
    }

    /// Remove specific values (removes the attribute when none remain);
    /// with an empty `values` list, removes the attribute entirely.
    pub fn remove_values(&mut self, id: &str, values: &[String]) {
        let Ok(at) = self.position(id) else {
            return;
        };
        let held = &self.attrs[at];
        let removed = |v: &&str| values.iter().any(|rm| rm.eq_ignore_ascii_case(v));
        let kept = held.values().filter(|v| !removed(v)).map(Box::from);
        match LdapAttr::new(held.id.clone(), kept).filter(|_| !values.is_empty()) {
            Some(kept) => self.attrs[at] = kept,
            None => drop(self.attrs.remove(at)),
        }
    }

    pub fn get(&self, id: &str) -> Option<&LdapAttr> {
        self.position(id).ok().map(|at| &self.attrs[at])
    }

    /// First value of an attribute.
    pub fn first(&self, id: &str) -> Option<&str> {
        self.get(id).map(|a| &*a.value)
    }

    pub fn has(&self, id: &str) -> bool {
        self.position(id).is_ok()
    }

    /// Whether the attribute holds `value` (case-insensitive).
    pub fn has_value(&self, id: &str, value: &str) -> bool {
        self.get(id)
            .is_some_and(|a| a.values().any(|v| v.eq_ignore_ascii_case(value)))
    }

    /// The attributes, ordered by case-folded id.
    pub fn attrs(&self) -> impl Iterator<Item = &LdapAttr> {
        self.attrs.iter()
    }

    /// Trim the attribute list to its length, as a tree stores the entry,
    /// and hand out each id to be pointed at the tree's copy of its
    /// spelling.
    pub(crate) fn stored_ids(&mut self) -> impl Iterator<Item = &mut Arc<str>> {
        self.attrs.shrink_to_fit();
        self.attrs.iter_mut().map(|a| &mut a.id)
    }

    /// Every `(attribute id, value)` the entry holds.
    pub fn pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs
            .iter()
            .flat_map(|a| a.values().map(move |v| (a.id(), v)))
    }

    /// A copy with only the requested attribute ids — the projection
    /// applied to search results.
    pub fn project(&self, ids: &[String]) -> LdapEntry {
        let mut out = LdapEntry::new(self.dn.clone());
        for id in ids {
            if let (Some(a), Err(at)) = (self.get(id), out.position(id)) {
                out.attrs.insert(at, a.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> LdapEntry {
        LdapEntry::new(Dn::parse("cn=x,o=y").unwrap())
            .with("objectClass", "device")
            .with("objectClass", "top")
            .with("cn", "x")
    }

    #[test]
    fn multivalued_case_insensitive() {
        let e = entry();
        assert_eq!(e.get("OBJECTCLASS").unwrap().values().count(), 2);
        assert!(e.has_value("objectclass", "TOP"));
        assert!(!e.has_value("objectclass", "person"));
        assert_eq!(e.first("cn"), Some("x"));
        assert_eq!(e.attrs().count(), 2);
        // Held once per folded id, in folded-id order, whatever the spelling.
        let e = e.with("Sn", "1").with("CN", "y").with("sN", "2");
        let ids: Vec<&str> = e.attrs().map(|a| a.id()).collect();
        assert_eq!(ids, ["cn", "objectClass", "Sn"]);
        assert_eq!(
            e.get("SN").unwrap().values().collect::<Vec<_>>(),
            ["1", "2"]
        );
        assert_eq!((e.get("s"), e.get("sna")), (None, None));
    }

    #[test]
    fn replace_and_remove() {
        let mut e = entry();
        e.replace("cn", vec!["y".into()]);
        assert_eq!(e.first("cn"), Some("y"));
        e.replace("cn", vec![]);
        assert!(!e.has("cn"));

        e.remove_values("objectClass", &["DEVICE".into()]);
        assert_eq!(
            e.get("objectclass").unwrap().values().collect::<Vec<_>>(),
            ["top"]
        );
        e.remove_values("objectClass", &[]);
        assert!(!e.has("objectclass"));
    }

    #[test]
    fn remove_last_value_drops_attr() {
        let mut e = LdapEntry::new(Dn::root()).with("a", "1");
        e.remove_values("a", &["1".into()]);
        assert!(!e.has("a"));
    }

    #[test]
    fn projection() {
        let e = entry();
        let p = e.project(&["CN".to_string(), "cn".to_string(), "sn".to_string()]);
        assert_eq!(p.attrs().count(), 1);
        assert_eq!((p.first("cn"), &p.dn), (Some("x"), &e.dn));
    }
}
