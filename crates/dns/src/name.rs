//! Domain names: dotted labels, case-insensitive, leaf label first.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A fully qualified domain name, held as its lower-cased dotted text
/// without the trailing dot (`dcl.mathcs.emory.edu`; the root is the empty
/// text). A name and its ancestors share one text: [`DnsName::parent`] and
/// [`DnsName::suffix`] move an offset instead of copying labels, and a
/// clone is a reference-count step, so a resolver can probe every ancestor
/// of a name — and keep each as a cache key — without allocating.
#[derive(Clone)]
pub struct DnsName {
    text: Arc<str>,
    /// Byte offset of this name's leaf label in `text`.
    start: usize,
}

impl DnsName {
    /// The DNS root.
    pub fn root() -> Self {
        DnsName::default()
    }

    fn from_text(text: String) -> Self {
        DnsName {
            text: text.into(),
            start: 0,
        }
    }

    /// Parse a dotted name; a trailing dot (FQDN form) is accepted and
    /// ignored. Labels are normalized to lower case.
    pub fn parse(s: &str) -> Result<DnsName, String> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(DnsName::root());
        }
        for label in s.split('.') {
            if label.is_empty() {
                return Err(format!("empty label in {s:?}"));
            }
            if label.len() > 63 {
                return Err(format!("label too long in {s:?}"));
            }
            if !label
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
            {
                return Err(format!("invalid character in label {label:?}"));
            }
        }
        // Wire length: one length octet per label plus the label bytes.
        if s.len() + 1 > 255 {
            return Err(format!("name too long: {s:?}"));
        }
        Ok(DnsName::from_text(s.to_ascii_lowercase()))
    }

    /// Join pre-split labels, leaf first, lower-casing them. No validation:
    /// this is how the wire decoder and tests build names.
    pub fn from_labels<I, S>(labels: I) -> DnsName
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut text = String::new();
        for (i, label) in labels.into_iter().enumerate() {
            if i > 0 {
                text.push('.');
            }
            text.push_str(&label.into());
        }
        text.make_ascii_lowercase();
        DnsName::from_text(text)
    }

    /// The dotted text, leaf label first, without the trailing dot; empty
    /// for the root.
    pub fn as_str(&self) -> &str {
        &self.text[self.start..]
    }

    /// Leaf-first labels.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        let text = self.as_str();
        text.split('.').filter(move |_| !text.is_empty())
    }

    pub fn is_root(&self) -> bool {
        self.as_str().is_empty()
    }

    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The parent name (dropping the leaf label); `None` at the root.
    pub fn parent(&self) -> Option<DnsName> {
        let text = self.as_str();
        if text.is_empty() {
            return None;
        }
        let skip = text.find('.').map_or(text.len(), |dot| dot + 1);
        Some(DnsName {
            text: self.text.clone(),
            start: self.start + skip,
        })
    }

    /// Prepend a label.
    pub fn child(&self, label: &str) -> DnsName {
        let parent = self.as_str();
        let mut text = String::with_capacity(label.len() + 1 + parent.len());
        text.push_str(label);
        if !parent.is_empty() {
            text.push('.');
            text.push_str(parent);
        }
        text.make_ascii_lowercase();
        DnsName::from_text(text)
    }

    /// Whether `self` equals or is beneath `zone` (suffix match).
    pub fn is_under(&self, zone: &DnsName) -> bool {
        let (name, zone) = (self.as_str(), zone.as_str());
        match name.len().checked_sub(zone.len()) {
            None => false,
            Some(0) => name == zone,
            Some(cut) => {
                zone.is_empty() || (name.ends_with(zone) && name.as_bytes()[cut - 1] == b'.')
            }
        }
    }

    /// The trailing `n` labels (a suffix name).
    pub fn suffix(&self, n: usize) -> DnsName {
        let text = self.as_str();
        // The suffix starts after the (n+1)-th dot from the right.
        let start = match n {
            0 => text.len(),
            _ => text
                .rmatch_indices('.')
                .nth(n - 1)
                .map_or(0, |(dot, _)| dot + 1),
        };
        DnsName {
            text: self.text.clone(),
            start: self.start + start,
        }
    }
}

impl Default for DnsName {
    fn default() -> Self {
        DnsName::from_text(String::new())
    }
}

impl PartialEq for DnsName {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for DnsName {}

impl std::hash::Hash for DnsName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialOrd for DnsName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DnsName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// Maps keyed by `DnsName` can be probed with the dotted text (`Eq`, `Ord`
/// and `Hash` above are the text's own).
impl Borrow<str> for DnsName {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.", self.as_str())
    }
}

impl fmt::Debug for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DnsName({self})")
    }
}

impl std::str::FromStr for DnsName {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnsName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = DnsName::parse("dcl.MathCS.Emory.edu").unwrap();
        assert_eq!(
            n.labels().collect::<Vec<_>>(),
            ["dcl", "mathcs", "emory", "edu"]
        );
        assert_eq!(n.to_string(), "dcl.mathcs.emory.edu.");
        assert_eq!(DnsName::parse("dcl.mathcs.emory.edu.").unwrap(), n);
    }

    #[test]
    fn root_cases() {
        assert!(DnsName::parse("").unwrap().is_root());
        assert!(DnsName::parse(".").unwrap().is_root());
        assert_eq!(DnsName::root().to_string(), ".");
        assert!(DnsName::root().parent().is_none());
    }

    #[test]
    fn hierarchy_navigation() {
        let n = DnsName::parse("a.b.c").unwrap();
        assert_eq!(n.parent().unwrap().to_string(), "b.c.");
        assert_eq!(n.parent().unwrap().child("x").to_string(), "x.b.c.");
        assert_eq!(n.suffix(1).to_string(), "c.");
        assert_eq!(n.suffix(99), n);
    }

    #[test]
    fn suffix_matching() {
        let zone = DnsName::parse("emory.edu").unwrap();
        assert!(DnsName::parse("dcl.mathcs.emory.edu")
            .unwrap()
            .is_under(&zone));
        assert!(zone.is_under(&zone));
        assert!(zone.is_under(&DnsName::root()));
        assert!(!DnsName::parse("emory.com").unwrap().is_under(&zone));
        assert!(!DnsName::parse("notemory.edu").unwrap().is_under(&zone));
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(DnsName::parse("a..b").is_err());
        assert!(DnsName::parse("sp ace.com").is_err());
        assert!(DnsName::parse(&("x".repeat(64) + ".com")).is_err());
        let long = ["abcdefgh"; 32].join(".");
        assert!(DnsName::parse(&long).is_err(), "total length cap");
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(
            DnsName::parse("WWW.EMORY.EDU").unwrap(),
            DnsName::parse("www.emory.edu").unwrap()
        );
    }
}
