//! Directory entries.

use std::borrow::Cow;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::dn::Dn;

/// A multi-valued attribute (string values, per common LDAP usage).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LdapAttr {
    /// Original-case identifier.
    pub id: String,
    pub values: Vec<String>,
}

/// An entry: a DN plus attributes keyed case-insensitively.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LdapEntry {
    pub dn: Dn,
    attrs: BTreeMap<String, LdapAttr>,
}

/// The map key of an attribute id: its lower-cased form, borrowed when the
/// id already is lower case.
fn attr_key(id: &str) -> Cow<'_, str> {
    if id.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(id.to_ascii_lowercase())
    } else {
        Cow::Borrowed(id)
    }
}

impl LdapEntry {
    pub fn new(dn: Dn) -> Self {
        LdapEntry {
            dn,
            attrs: BTreeMap::new(),
        }
    }

    /// Builder-style attribute insertion (adds a value).
    pub fn with(mut self, id: &str, value: impl Into<String>) -> Self {
        self.add_value(id, value);
        self
    }

    pub fn add_value(&mut self, id: &str, value: impl Into<String>) {
        self.attrs
            .entry(id.to_ascii_lowercase())
            .or_insert_with(|| LdapAttr {
                id: id.to_string(),
                values: Vec::new(),
            })
            .values
            .push(value.into());
    }

    /// Replace an attribute's values wholesale; empty removes it.
    pub fn replace(&mut self, id: &str, values: Vec<String>) {
        let key = id.to_ascii_lowercase();
        if values.is_empty() {
            self.attrs.remove(&key);
        } else {
            self.attrs.insert(
                key,
                LdapAttr {
                    id: id.to_string(),
                    values,
                },
            );
        }
    }

    /// Remove specific values (removes the attribute when none remain);
    /// with an empty `values` list, removes the attribute entirely.
    pub fn remove_values(&mut self, id: &str, values: &[String]) {
        let key = id.to_ascii_lowercase();
        if values.is_empty() {
            self.attrs.remove(&key);
            return;
        }
        if let Some(attr) = self.attrs.get_mut(&key) {
            attr.values
                .retain(|v| !values.iter().any(|rm| rm.eq_ignore_ascii_case(v)));
            if attr.values.is_empty() {
                self.attrs.remove(&key);
            }
        }
    }

    pub fn get(&self, id: &str) -> Option<&LdapAttr> {
        self.attrs.get(attr_key(id).as_ref())
    }

    /// First value of an attribute.
    pub fn first(&self, id: &str) -> Option<&str> {
        self.get(id)
            .and_then(|a| a.values.first())
            .map(|s| s.as_str())
    }

    pub fn has(&self, id: &str) -> bool {
        self.attrs.contains_key(attr_key(id).as_ref())
    }

    /// Whether the attribute holds `value` (case-insensitive).
    pub fn has_value(&self, id: &str, value: &str) -> bool {
        self.get(id)
            .is_some_and(|a| a.values.iter().any(|v| v.eq_ignore_ascii_case(value)))
    }

    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    pub fn attrs(&self) -> impl Iterator<Item = &LdapAttr> {
        self.attrs.values()
    }

    /// A copy with only the requested attribute ids (`None` = all) — the
    /// projection applied to search results.
    pub fn project(&self, ids: Option<&[String]>) -> LdapEntry {
        match ids {
            None => self.clone(),
            Some(ids) => {
                let mut out = LdapEntry::new(self.dn.clone());
                for id in ids {
                    if let Some(a) = self.get(id) {
                        out.attrs.insert(id.to_ascii_lowercase(), a.clone());
                    }
                }
                out
            }
        }
    }

    /// Approximate serialized size (bytes), for cost models.
    pub fn size(&self) -> usize {
        self.dn.to_string().len()
            + self
                .attrs
                .values()
                .map(|a| a.id.len() + a.values.iter().map(|v| v.len()).sum::<usize>())
                .sum::<usize>()
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
        assert_eq!(e.attr_count(), 2);
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
        let p = e.project(Some(&["cn".to_string()]));
        assert!(p.has("cn") && !p.has("objectclass"));
        let all = e.project(None);
        assert_eq!(all, e);
    }
}
