//! Distinguished names.
//!
//! A DN is a sequence of RDNs, written leaf-first: in
//! `cn=mokey,ou=dcl,o=emory`, `cn=mokey` names the entry and `o=emory` the
//! root. Attribute types compare case-insensitively; values are normalized
//! for comparison but preserved for display. Commas inside values are
//! escaped with `\`.

use std::fmt;

use serde::{Deserialize, Serialize};

/// One relative distinguished name: `attr=value`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rdn {
    /// Attribute type, lower-cased.
    pub attr: String,
    /// Value with original case.
    pub value: String,
}

impl Rdn {
    pub fn new(attr: impl Into<String>, value: impl Into<String>) -> Self {
        Rdn {
            attr: attr.into().to_ascii_lowercase(),
            value: value.into(),
        }
    }

    /// Parse `attr=value` (value may contain escaped separators).
    pub fn parse(s: &str) -> Result<Rdn, String> {
        let (attr, value) = s
            .split_once('=')
            .ok_or_else(|| format!("RDN {s:?} missing '='"))?;
        let attr = attr.trim();
        let value = value.trim();
        if attr.is_empty() || value.is_empty() {
            return Err(format!("RDN {s:?} has empty attribute or value"));
        }
        Ok(Rdn::new(attr, value))
    }

    /// Case-insensitive equivalence.
    pub fn matches(&self, other: &Rdn) -> bool {
        self.attr == other.attr && self.value.eq_ignore_ascii_case(&other.value)
    }

    /// Normalized form used as a map key.
    pub fn normalized(&self) -> String {
        let mut out = String::with_capacity(self.attr.len() + 1 + self.value.len());
        self.write_normalized(&mut out);
        out
    }

    /// Append [`Rdn::normalized`] to `out`.
    pub fn write_normalized(&self, out: &mut String) {
        out.push_str(&self.attr);
        out.push('=');
        out.extend(self.value.chars().map(|c| c.to_ascii_lowercase()));
    }
}

impl fmt::Display for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut escaped = String::with_capacity(self.value.len());
        for c in self.value.chars() {
            if matches!(c, ',' | '\\' | '=') {
                escaped.push('\\');
            }
            escaped.push(c);
        }
        write!(f, "{}={}", self.attr, escaped)
    }
}

/// A distinguished name; `rdns[0]` is the leaf.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Dn {
    rdns: Vec<Rdn>,
}

impl Dn {
    /// The root DSE (empty DN).
    pub fn root() -> Self {
        Dn::default()
    }

    pub fn from_rdns(rdns: Vec<Rdn>) -> Self {
        Dn { rdns }
    }

    /// Parse a leaf-first comma-separated DN with `\` escapes.
    pub fn parse(s: &str) -> Result<Dn, String> {
        if s.trim().is_empty() {
            return Ok(Dn::root());
        }
        let mut parts = Vec::new();
        let mut current = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some(n) => current.push(n),
                    None => return Err(format!("DN {s:?} ends with dangling escape")),
                },
                ',' => parts.push(std::mem::take(&mut current)),
                _ => current.push(c),
            }
        }
        parts.push(current);
        let rdns: Result<Vec<Rdn>, String> = parts.iter().map(|p| Rdn::parse(p)).collect();
        Ok(Dn { rdns: rdns? })
    }

    /// The leaf RDN (None for the root DSE).
    pub fn rdn(&self) -> Option<&Rdn> {
        self.rdns.first()
    }

    /// The parent DN (dropping the leaf RDN); `None` for the root.
    pub fn parent(&self) -> Option<Dn> {
        if self.rdns.is_empty() {
            None
        } else {
            Some(Dn {
                rdns: self.rdns[1..].to_vec(),
            })
        }
    }

    /// Child DN: `rdn,self`.
    pub fn child(&self, rdn: Rdn) -> Dn {
        let mut rdns = Vec::with_capacity(self.rdns.len() + 1);
        rdns.push(rdn);
        rdns.extend(self.rdns.iter().cloned());
        Dn { rdns }
    }

    /// Number of RDNs.
    pub fn depth(&self) -> usize {
        self.rdns.len()
    }

    pub fn is_root(&self) -> bool {
        self.rdns.is_empty()
    }

    /// RDNs, leaf first.
    pub fn rdns(&self) -> &[Rdn] {
        &self.rdns
    }

    /// Whether `self` is (an entry in) the subtree rooted at `base`
    /// (inclusive).
    pub fn is_under(&self, base: &Dn) -> bool {
        if base.rdns.len() > self.rdns.len() {
            return false;
        }
        let offset = self.rdns.len() - base.rdns.len();
        self.rdns[offset..]
            .iter()
            .zip(&base.rdns)
            .all(|(a, b)| a.matches(b))
    }

    /// Whether `self` is a *direct* child of `base`.
    pub fn is_child_of(&self, base: &Dn) -> bool {
        self.rdns.len() == base.rdns.len() + 1 && self.is_under(base)
    }

    /// Normalized key for maps / equality under LDAP case rules.
    pub fn normalized(&self) -> String {
        self.rdns
            .iter()
            .map(|r| r.normalized())
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.rdns.iter().map(|r| r.to_string()).collect();
        f.write_str(&parts.join(","))
    }
}

impl std::str::FromStr for Dn {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Dn::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let dn = Dn::parse("cn=mokey, ou=dcl, o=emory").unwrap();
        assert_eq!(dn.depth(), 3);
        assert_eq!(dn.rdn().unwrap().attr, "cn");
        assert_eq!(dn.rdn().unwrap().value, "mokey");
        assert_eq!(dn.to_string(), "cn=mokey,ou=dcl,o=emory");
    }

    #[test]
    fn root_dse() {
        let dn = Dn::parse("").unwrap();
        assert!(dn.is_root());
        assert!(dn.parent().is_none());
        assert!(dn.rdn().is_none());
    }

    #[test]
    fn parent_child_navigation() {
        let dn = Dn::parse("cn=a,o=b").unwrap();
        let parent = dn.parent().unwrap();
        assert_eq!(parent.to_string(), "o=b");
        let back = parent.child(Rdn::new("cn", "a"));
        assert_eq!(back, dn);
    }

    #[test]
    fn subtree_relationships() {
        let base = Dn::parse("ou=dcl,o=emory").unwrap();
        let entry = Dn::parse("cn=mokey,ou=dcl,o=emory").unwrap();
        let deep = Dn::parse("cn=x,cn=mokey,ou=dcl,o=emory").unwrap();
        let other = Dn::parse("cn=mokey,ou=other,o=emory").unwrap();

        assert!(entry.is_under(&base));
        assert!(deep.is_under(&base));
        assert!(base.is_under(&base), "inclusive");
        assert!(!other.is_under(&base));

        assert!(entry.is_child_of(&base));
        assert!(!deep.is_child_of(&base));
        assert!(!base.is_child_of(&base));
        assert!(entry.is_under(&Dn::root()));
    }

    #[test]
    fn case_insensitive_normalization() {
        let a = Dn::parse("CN=Mokey,O=Emory").unwrap();
        let b = Dn::parse("cn=mokey,o=emory").unwrap();
        assert_eq!(a.normalized(), b.normalized());
        assert!(a.is_under(&b));
    }

    #[test]
    fn escaped_commas() {
        let dn = Dn::parse(r"cn=Lastname\, Firstname,o=emory").unwrap();
        assert_eq!(dn.depth(), 2);
        assert_eq!(dn.rdn().unwrap().value, "Lastname, Firstname");
        let printed = dn.to_string();
        assert_eq!(Dn::parse(&printed).unwrap(), dn, "display roundtrips");
    }

    #[test]
    fn rejects_malformed() {
        assert!(Dn::parse("noequals").is_err());
        assert!(Dn::parse("=v").is_err());
        assert!(Dn::parse("a=").is_err());
        assert!(Dn::parse(r"a=b\").is_err());
    }
}
