//! Distinguished names.
//!
//! A DN is a sequence of RDNs, written leaf-first: in
//! `cn=mokey,ou=dcl,o=emory`, `cn=mokey` names the entry and `o=emory` the
//! root. Attribute types compare case-insensitively; values are compared
//! folded but preserved for display. `,` `\` and `=` inside an RDN are
//! escaped with `\`.

use std::borrow::Cow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::convert::Infallible;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::entry::{cmp_folded, hash_folded};

/// One relative distinguished name, `attr=value`, owned: what a caller
/// hands to [`Dn::child`] or to a rename.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
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

    /// `attr=value` split at the first `=`, both sides trimmed and
    /// non-empty (the value may hold separators, taken as they are).
    pub fn split(s: &str) -> Result<(&str, &str), String> {
        let (attr, value) = s
            .split_once('=')
            .ok_or_else(|| format!("RDN {s:?} missing '='"))?;
        let (attr, value) = (attr.trim(), value.trim());
        if attr.is_empty() || value.is_empty() {
            return Err(format!("RDN {s:?} has empty attribute or value"));
        }
        Ok((attr, value))
    }
}

/// Append the canonical text of the RDN `attr=value` to `out`: the
/// attribute lower-cased, `,` `\` `=` escaped on both sides.
fn push_rdn(out: &mut String, attr: &str, value: &str) {
    for (i, mut s) in [attr, value].into_iter().enumerate() {
        let from = out.len();
        while let Some(at) = s.find([',', '\\', '=']) {
            out.push_str(&s[..at]);
            out.push('\\');
            out.push_str(&s[at..=at]);
            s = &s[at + 1..];
        }
        out.push_str(s);
        if i == 0 {
            out[from..].make_ascii_lowercase();
            out.push('=');
        }
    }
}

/// `s` with its escapes taken out — borrowed when it has none.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('\\') {
        return Cow::Borrowed(s);
    }
    let mut chars = s.chars();
    let mut out = String::with_capacity(s.len());
    while let Some(c) = chars.next() {
        out.push(if c == '\\' {
            chars.next().unwrap_or(c)
        } else {
            c
        });
    }
    Cow::Owned(out)
}

/// The byte offsets of the `target`s in `s` that no `\` escapes.
fn unescaped(s: &str, target: u8) -> impl Iterator<Item = usize> + '_ {
    let mut escaped = false;
    s.bytes().enumerate().filter_map(move |(at, b)| {
        let hit = b == target && !escaped;
        escaped = b == b'\\' && !escaped;
        hit.then_some(at)
    })
}

/// `text` cut at the commas no `\` escapes: its RDNs, leaf first, as
/// written.
fn split_rdns(text: &str) -> impl Iterator<Item = &str> {
    let mut from = 0;
    let ends = unescaped(text, b',').chain([text.len()]);
    ends.filter(|_| !text.is_empty()).map(move |to| {
        let rdn = &text[from..to];
        from = to + 1;
        rdn
    })
}

/// One RDN of a [`Dn`], borrowed from its text.
// Public as the type `Dn::rdn` and `Dn::rdns` yield.
#[derive(Clone, Copy, Debug)]
pub struct RdnRef<'a>(&'a str);

impl<'a> RdnRef<'a> {
    fn halves(&self) -> (&'a str, &'a str) {
        let eq = unescaped(self.0, b'=').next().unwrap_or(self.0.len());
        (&self.0[..eq], self.0.get(eq + 1..).unwrap_or(""))
    }

    /// The attribute type, lower-cased.
    pub fn attr(&self) -> Cow<'a, str> {
        unescape(self.halves().0)
    }

    /// The value, in the case it was given.
    pub fn value(&self) -> Cow<'a, str> {
        unescape(self.halves().1)
    }

    /// `attr=value`, escaped, as the DN's text has it.
    pub fn as_str(&self) -> &'a str {
        self.0
    }
}

thread_local! {
    /// Where this thread writes a DN's text before copying it into the
    /// DN's `Arc<str>`, which is then the one allocation a DN costs.
    static SCRATCH: Cell<String> = const { Cell::new(String::new()) };
}

/// A distinguished name, held as its canonical text — what `Display`
/// prints: leaf first, attribute types lower-cased, values in the case they
/// were given, `,` `\` `=` escaped — behind one `Arc<str>` plus the offset
/// of this DN's leaf RDN. A DN and its ancestors share one text
/// ([`Dn::parent`] moves the offset), and a clone is a reference-count
/// step. Equality, ordering and hashing fold ASCII case, as LDAP compares
/// names, and allocate nothing.
#[derive(Clone, Default)]
pub struct Dn {
    text: Arc<str>,
    start: usize,
}

impl Dn {
    /// The root DSE (empty DN).
    pub fn root() -> Self {
        Dn::default()
    }

    pub fn from_rdns(rdns: Vec<Rdn>) -> Self {
        let rdns = rdns.iter().map(|r| Ok((r.attr.as_str(), r.value.as_str())));
        Dn::root()
            .under(rdns)
            .unwrap_or_else(|e: Infallible| match e {})
    }

    /// The DN whose canonical text `write` produces: written in this
    /// thread's scratch buffer, so the DN's `Arc<str>` is the one
    /// allocation it costs.
    fn build<E>(write: impl FnOnce(&mut String) -> Result<(), E>) -> Result<Dn, E> {
        // `try_with`: a DN may be built while a thread's locals go away.
        let mut text = SCRATCH.try_with(Cell::take).unwrap_or_default();
        text.clear();
        let built = write(&mut text).map(|()| Dn {
            text: Arc::from(text.as_str()),
            start: 0,
        });
        let _ = SCRATCH.try_with(|scratch| scratch.set(text));
        built
    }

    /// The DN of `rdns` — `(attribute, value)` pairs, leaf first, values
    /// unescaped — below `self`; or the first error an item carries.
    pub fn under<'a, E>(
        &self,
        rdns: impl IntoIterator<Item = Result<(&'a str, &'a str), E>>,
    ) -> Result<Dn, E> {
        Dn::build(|text| {
            for rdn in rdns {
                let (attr, value) = rdn?;
                push_rdn(text, attr, value);
                text.push(',');
            }
            text.push_str(self.as_str());
            if self.is_root() {
                text.pop();
            }
            Ok(())
        })
    }

    /// Parse a leaf-first comma-separated DN with `\` escapes.
    pub fn parse(s: &str) -> Result<Dn, String> {
        if s.trim().is_empty() {
            return Ok(Dn::root());
        }
        if s.bytes().rev().take_while(|&b| b == b'\\').count() % 2 == 1 {
            return Err(format!("DN {s:?} ends with dangling escape"));
        }
        Dn::build(|text| {
            for rdn in split_rdns(s) {
                let rdn = unescape(rdn);
                let (attr, value) = Rdn::split(&rdn)?;
                push_rdn(text, attr, value);
                text.push(',');
            }
            text.pop();
            Ok(())
        })
    }

    /// The canonical text.
    pub fn as_str(&self) -> &str {
        &self.text[self.start..]
    }

    /// The leaf RDN (None for the root DSE).
    pub fn rdn(&self) -> Option<RdnRef<'_>> {
        self.rdns().next()
    }

    /// The parent DN (dropping the leaf RDN); `None` for the root. Shares
    /// this DN's text.
    pub fn parent(&self) -> Option<Dn> {
        let text = self.as_str();
        let skip = unescaped(text, b',').next().map_or(text.len(), |at| at + 1);
        (!self.is_root()).then(|| Dn {
            text: self.text.clone(),
            start: self.start + skip,
        })
    }

    /// Child DN: `rdn,self`.
    pub fn child(&self, rdn: Rdn) -> Dn {
        self.under([Ok((rdn.attr.as_str(), rdn.value.as_str()))])
            .unwrap_or_else(|e: Infallible| match e {})
    }

    /// Number of RDNs.
    pub fn depth(&self) -> usize {
        self.rdns().count()
    }

    pub fn is_root(&self) -> bool {
        self.as_str().is_empty()
    }

    /// RDNs, leaf first.
    pub fn rdns(&self) -> impl Iterator<Item = RdnRef<'_>> {
        split_rdns(self.as_str()).map(RdnRef)
    }

    /// Whether `self` is (an entry in) the subtree rooted at `base`
    /// (inclusive): `base`'s text ends `self`'s, folded, from an RDN
    /// boundary on.
    pub fn is_under(&self, base: &Dn) -> bool {
        let (name, base) = (self.as_str().as_bytes(), base.as_str().as_bytes());
        let Some(cut) = name.len().checked_sub(base.len()) else {
            return false;
        };
        name[cut..].eq_ignore_ascii_case(base)
            && (cut == 0
                || base.is_empty()
                || unescaped(self.as_str(), b',').any(|at| at + 1 == cut))
    }

    /// Whether `self` is a *direct* child of `base`.
    pub fn is_child_of(&self, base: &Dn) -> bool {
        self.parent().is_some_and(|parent| parent == *base)
    }

    /// The canonical text, folded: equal for equal DNs.
    pub fn normalized(&self) -> String {
        self.as_str().to_ascii_lowercase()
    }
}

impl PartialEq for Dn {
    fn eq(&self, other: &Self) -> bool {
        self.as_str().eq_ignore_ascii_case(other.as_str())
    }
}

impl Eq for Dn {}

impl Hash for Dn {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_folded(self.as_str(), state);
    }
}

impl PartialOrd for Dn {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dn {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_folded(self.as_str(), other.as_str())
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dn({:?})", self.as_str())
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
        let dn = Dn::parse("CN=mokey, ou=dcl, o=emory").unwrap();
        assert_eq!(dn.depth(), 3);
        assert_eq!(dn.rdn().unwrap().attr(), "cn");
        assert_eq!(dn.rdn().unwrap().value(), "mokey");
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
        assert!(
            Arc::ptr_eq(&parent.text, &dn.text),
            "the parent shares the text"
        );
        let back = parent.child(Rdn::new("cn", "a"));
        assert_eq!(back, dn);
    }

    #[test]
    fn subtree_relationships() {
        let base = Dn::parse("ou=dcl,o=emory").unwrap();
        let entry = Dn::parse("cn=mokey,ou=dcl,o=emory").unwrap();
        let deep = Dn::parse("cn=x,cn=mokey,ou=dcl,o=emory").unwrap();
        let other = Dn::parse("cn=mokey,ou=other,o=emory").unwrap();
        // Ends in the base's text, but inside a value.
        let escaped = Dn::parse(r"cn=a\,ou=dcl,o=emory").unwrap();

        assert!(entry.is_under(&base));
        assert!(deep.is_under(&base));
        assert!(base.is_under(&base), "inclusive");
        assert!(!other.is_under(&base));
        assert!(!escaped.is_under(&base));

        assert!(entry.is_child_of(&base));
        assert!(!deep.is_child_of(&base));
        assert!(!base.is_child_of(&base));
        assert!(entry.is_under(&Dn::root()));
    }

    #[test]
    fn case_insensitive_comparison() {
        let a = Dn::parse("CN=Mokey,O=Emory").unwrap();
        let b = Dn::parse("cn=mokey,o=emory").unwrap();
        assert_eq!((&a, a.cmp(&b)), (&b, Ordering::Equal));
        assert!(a.is_under(&b));
        assert_eq!(a.to_string(), "cn=Mokey,o=Emory", "values keep their case");
    }

    #[test]
    fn escaped_commas() {
        let dn = Dn::parse(r"cn=Lastname\, Firstname,o=emory").unwrap();
        assert_eq!(dn.depth(), 2);
        assert_eq!(dn.rdn().unwrap().value(), "Lastname, Firstname");
        let printed = dn.to_string();
        assert_eq!(Dn::parse(&printed).unwrap(), dn, "display roundtrips");
        let rdns: Vec<&str> = dn.rdns().map(|r| r.as_str()).collect();
        assert_eq!(rdns, [r"cn=Lastname\, Firstname", "o=emory"]);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Dn::parse("noequals").is_err());
        assert!(Dn::parse("=v").is_err());
        assert!(Dn::parse("a=").is_err());
        assert!(Dn::parse(r"a=b\").is_err());
        assert!(Dn::parse("a=b,,c=d").is_err());
    }
}
