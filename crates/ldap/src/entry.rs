//! Directory entries.

use std::borrow::Cow;
use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::dn::Dn;

/// A multi-valued attribute (string values, per common LDAP usage).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LdapAttr {
    /// Original-case identifier.
    pub id: String,
    pub values: Vec<String>,
}

/// An entry: a DN plus attributes, one per case-insensitive id.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
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
fn cmp_folded(a: &str, b: &str) -> Ordering {
    let lower = |b: u8| b.to_ascii_lowercase();
    a.bytes().map(lower).cmp(b.bytes().map(lower))
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
        match self.position(id) {
            Ok(at) => self.attrs[at].values.push(value.into()),
            Err(at) => self.attrs.insert(
                at,
                LdapAttr {
                    id: id.to_string(),
                    values: vec![value.into()],
                },
            ),
        }
    }

    /// Replace an attribute's values wholesale; empty removes it.
    pub fn replace(&mut self, id: &str, values: Vec<String>) {
        let found = self.position(id);
        let (Ok(at) | Err(at)) = found;
        if found.is_ok() {
            self.attrs.remove(at);
        }
        if !values.is_empty() {
            let id = id.to_string();
            self.attrs.insert(at, LdapAttr { id, values });
        }
    }

    /// Remove specific values (removes the attribute when none remain);
    /// with an empty `values` list, removes the attribute entirely.
    pub fn remove_values(&mut self, id: &str, values: &[String]) {
        let Ok(at) = self.position(id) else {
            return;
        };
        let held = &mut self.attrs[at].values;
        held.retain(|v| !values.iter().any(|rm| rm.eq_ignore_ascii_case(v)));
        if values.is_empty() || held.is_empty() {
            self.attrs.remove(at);
        }
    }

    pub fn get(&self, id: &str) -> Option<&LdapAttr> {
        self.position(id).ok().map(|at| &self.attrs[at])
    }

    /// First value of an attribute.
    pub fn first(&self, id: &str) -> Option<&str> {
        self.get(id)
            .and_then(|a| a.values.first())
            .map(|s| s.as_str())
    }

    pub fn has(&self, id: &str) -> bool {
        self.position(id).is_ok()
    }

    /// Whether the attribute holds `value` (case-insensitive).
    pub fn has_value(&self, id: &str, value: &str) -> bool {
        self.get(id)
            .is_some_and(|a| a.values.iter().any(|v| v.eq_ignore_ascii_case(value)))
    }

    /// The attributes, ordered by case-folded id.
    pub fn attrs(&self) -> impl Iterator<Item = &LdapAttr> {
        self.attrs.iter()
    }

    /// Every `(attribute id, value)` the entry holds.
    pub fn pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs
            .iter()
            .flat_map(|a| a.values.iter().map(move |v| (a.id.as_str(), v.as_str())))
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
        assert_eq!(e.get("OBJECTCLASS").unwrap().values.len(), 2);
        assert!(e.has_value("objectclass", "TOP"));
        assert!(!e.has_value("objectclass", "person"));
        assert_eq!(e.first("cn"), Some("x"));
        assert_eq!(e.attrs().count(), 2);
        // Held once per folded id, in folded-id order, whatever the spelling.
        let e = e.with("Sn", "1").with("CN", "y").with("sN", "2");
        let ids: Vec<&str> = e.attrs().map(|a| a.id.as_str()).collect();
        assert_eq!(ids, ["cn", "objectClass", "Sn"]);
        assert_eq!(e.get("SN").unwrap().values, ["1", "2"]);
        assert_eq!((e.get("s"), e.get("sna")), (None, None));
    }

    #[test]
    fn replace_and_remove() {
        let mut e = entry();
        e.replace("cn", vec!["y".into()]);
        assert_eq!(e.first("cn"), Some("y"));
        e.replace("cn", vec![]);
        assert!(!e.has("cn"));

        e.remove_values("objectClass", &["top".into()]);
        assert_eq!(e.get("objectclass").unwrap().values, vec!["device"]);
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
