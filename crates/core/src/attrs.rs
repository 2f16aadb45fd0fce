//! Directory attributes: `<name, object, attributes>` is the JNDI data
//! model. Attribute identifiers compare case-insensitively (as in LDAP);
//! attributes are multi-valued and unordered.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::value::{from_hex, put_hex, put_num, put_text, take_len, take_num, take_text};

/// The first byte of an attribute set's encoding and of an attribute's
/// value list's: control characters that, like a value's tags, no JSON text
/// starts with.
const TAG_SET: char = '\u{10}';
const TAG_VALUES: char = '\u{11}';

/// A single attribute value. Kept deliberately simple — string and binary
/// cover every backend in this workspace; numeric comparisons in search
/// filters parse the string form.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AttrValue {
    Str(String),
    Bytes(Vec<u8>),
}

impl AttrValue {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            AttrValue::Bytes(_) => None,
        }
    }
}

impl fmt::Debug for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => write!(f, "{s:?}"),
            AttrValue::Bytes(b) => write!(f, "bytes[{}]", b.len()),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}

/// A named, multi-valued attribute.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribute {
    /// Identifier in its original case (comparison is case-insensitive).
    pub id: String,
    pub values: Vec<AttrValue>,
}

impl Attribute {
    pub fn new(id: impl Into<String>) -> Self {
        Attribute {
            id: id.into(),
            values: Vec::new(),
        }
    }

    pub fn single(id: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        Attribute {
            id: id.into(),
            values: vec![value.into()],
        }
    }

    pub fn with(mut self, value: impl Into<AttrValue>) -> Self {
        self.values.push(value.into());
        self
    }

    /// First value as a string, if any.
    pub fn first_str(&self) -> Option<&str> {
        self.values.first().and_then(|v| v.as_str())
    }

    /// The values as text, for a store that keeps one string per
    /// attribute: a tag, then the list [`Attributes::encode`] writes.
    pub fn encode_values(&self) -> String {
        let mut out = String::from(TAG_VALUES);
        put_values(&mut out, &self.values);
        out
    }

    /// The attribute `id` with the values [`encode_values`] wrote, or with
    /// those of the JSON string array earlier versions wrote. `None` for
    /// anything else.
    ///
    /// [`encode_values`]: Attribute::encode_values
    pub fn decode_values(id: &str, text: &str) -> Option<Attribute> {
        let values = match text.strip_prefix(TAG_VALUES) {
            Some(mut rest) => take_values(&mut rest).filter(|_| rest.is_empty())?,
            None => serde_json::from_str::<Vec<String>>(text)
                .ok()?
                .into_iter()
                .map(AttrValue::Str)
                .collect(),
        };
        Some(Attribute {
            id: id.to_owned(),
            values,
        })
    }
}

/// A value list: its length, then each value as its length, doubled and
/// plus one for bytes, and its text (bytes in hex).
fn put_values(out: &mut String, values: &[AttrValue]) {
    put_num(out, values.len());
    for v in values {
        match v {
            AttrValue::Str(s) => {
                put_num(out, s.len() << 1);
                out.push_str(s);
            }
            AttrValue::Bytes(b) => {
                put_num(out, b.len() << 2 | 1);
                put_hex(out, b);
            }
        }
    }
}

fn take_values(rest: &mut &str) -> Option<Vec<AttrValue>> {
    let count = take_num(rest)?;
    let mut values = Vec::with_capacity(count.min(rest.len()));
    for _ in 0..count {
        let n = take_num(rest)?;
        let text = take_len(rest, n >> 1)?;
        values.push(match n & 1 {
            0 => AttrValue::Str(text.to_owned()),
            _ => AttrValue::Bytes(from_hex(text)?),
        });
    }
    Some(values)
}

/// An attribute set keyed by lower-cased identifier.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attributes {
    attrs: BTreeMap<String, Attribute>,
}

impl Attributes {
    pub fn new() -> Self {
        Attributes::default()
    }

    /// Builder-style insertion of a single-valued attribute.
    pub fn with(mut self, id: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.put(Attribute::single(id, value));
        self
    }

    /// Insert or replace an attribute.
    pub fn put(&mut self, attr: Attribute) -> Option<Attribute> {
        self.attrs.insert(attr.id.to_ascii_lowercase(), attr)
    }

    /// Add a value to an existing attribute, creating it if absent.
    pub fn add_value(&mut self, id: &str, value: impl Into<AttrValue>) {
        let key = id.to_ascii_lowercase();
        self.attrs
            .entry(key)
            .or_insert_with(|| Attribute::new(id))
            .values
            .push(value.into());
    }

    /// Case-insensitive fetch.
    pub fn get(&self, id: &str) -> Option<&Attribute> {
        self.attrs.get(&id.to_ascii_lowercase())
    }

    /// Remove an attribute (case-insensitive).
    pub fn remove(&mut self, id: &str) -> Option<Attribute> {
        self.attrs.remove(&id.to_ascii_lowercase())
    }

    pub fn contains(&self, id: &str) -> bool {
        self.attrs.contains_key(&id.to_ascii_lowercase())
    }

    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterate attributes in identifier order.
    pub fn iter(&self) -> impl Iterator<Item = &Attribute> {
        self.attrs.values()
    }

    /// A copy containing only the requested identifiers (the
    /// `getAttributes(name, attrIds)` projection).
    pub fn project(&self, ids: &[&str]) -> Attributes {
        let mut out = Attributes::new();
        for id in ids {
            if let Some(a) = self.get(id) {
                out.put(a.clone());
            }
        }
        out
    }

    /// The set as text, for a store that keeps attributes as strings: a
    /// tag, the number of attributes, then each one's identifier and value
    /// list (DESIGN.md, "The value codec").
    pub fn encode(&self) -> String {
        let mut out = String::from(TAG_SET);
        put_num(&mut out, self.len());
        for a in self.iter() {
            put_text(&mut out, &a.id);
            put_values(&mut out, &a.values);
        }
        out
    }

    /// The set [`encode`](Attributes::encode) wrote, or the JSON earlier
    /// versions wrote. `None` for anything else.
    pub fn decode(text: &str) -> Option<Attributes> {
        let Some(mut rest) = text.strip_prefix(TAG_SET) else {
            return serde_json::from_str(text).ok();
        };
        let mut out = Attributes::new();
        for _ in 0..take_num(&mut rest)? {
            let id = take_text(&mut rest)?.to_owned();
            let values = take_values(&mut rest)?;
            // In identifier order, each once, as `encode` writes them.
            let key = id.to_ascii_lowercase();
            (out.attrs.keys().next_back() < Some(&key)).then_some(())?;
            out.attrs.insert(key, Attribute { id, values });
        }
        rest.is_empty().then_some(out)
    }

    /// Merge `other` into `self`, replacing same-id attributes.
    pub fn merge(&mut self, other: &Attributes) {
        for a in other.iter() {
            self.put(a.clone());
        }
    }
}

impl FromIterator<Attribute> for Attributes {
    fn from_iter<I: IntoIterator<Item = Attribute>>(iter: I) -> Self {
        let mut out = Attributes::new();
        for a in iter {
            out.put(a);
        }
        out
    }
}

/// Modification operations for `modify_attributes`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttrMod {
    /// Add values (creating the attribute if needed).
    Add(Attribute),
    /// Replace the attribute wholesale.
    Replace(Attribute),
    /// Remove the attribute entirely (values in the payload are ignored).
    Remove(String),
    /// Remove specific values; removes the attribute if none remain.
    RemoveValues(Attribute),
}

impl AttrMod {
    /// Apply this modification to an attribute set.
    pub fn apply(&self, attrs: &mut Attributes) {
        match self {
            AttrMod::Add(a) => {
                for v in &a.values {
                    attrs.add_value(&a.id, v.clone());
                }
            }
            AttrMod::Replace(a) => {
                attrs.put(a.clone());
            }
            AttrMod::Remove(id) => {
                attrs.remove(id);
            }
            AttrMod::RemoveValues(a) => {
                if let Some(existing) = attrs.get(&a.id).cloned() {
                    let remaining: Vec<AttrValue> = existing
                        .values
                        .iter()
                        .filter(|v| !a.values.contains(v))
                        .cloned()
                        .collect();
                    if remaining.is_empty() {
                        attrs.remove(&a.id);
                    } else {
                        attrs.put(Attribute {
                            id: existing.id,
                            values: remaining,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_ids() {
        let mut attrs = Attributes::new();
        attrs.put(Attribute::single("CPUCount", "8"));
        assert!(attrs.contains("cpucount"));
        assert_eq!(attrs.get("CPUCOUNT").unwrap().first_str(), Some("8"));
        attrs.remove("CpuCount");
        assert!(attrs.is_empty());
    }

    #[test]
    fn multivalued() {
        let a = Attribute::new("member").with("alice").with("bob");
        assert_eq!(a.values.len(), 2);
    }

    #[test]
    fn add_value_creates_or_extends() {
        let mut attrs = Attributes::new();
        attrs.add_value("tag", "x");
        attrs.add_value("TAG", "y");
        assert_eq!(attrs.get("tag").unwrap().values.len(), 2);
        assert_eq!(attrs.len(), 1);
    }

    #[test]
    fn projection() {
        let attrs = Attributes::new()
            .with("a", "1")
            .with("b", "2")
            .with("c", "3");
        let p = attrs.project(&["A", "c", "zz"]);
        assert_eq!(p.len(), 2);
        assert!(p.contains("a") && p.contains("c") && !p.contains("b"));
    }

    #[test]
    fn modifications() {
        let mut attrs = Attributes::new().with("color", "red");
        AttrMod::Add(Attribute::single("color", "blue")).apply(&mut attrs);
        assert_eq!(attrs.get("color").unwrap().values.len(), 2);

        AttrMod::RemoveValues(Attribute::single("color", "red")).apply(&mut attrs);
        assert_eq!(attrs.get("color").unwrap().first_str(), Some("blue"));

        AttrMod::RemoveValues(Attribute::single("color", "blue")).apply(&mut attrs);
        assert!(
            !attrs.contains("color"),
            "attribute gone when last value removed"
        );

        AttrMod::Replace(Attribute::single("size", "xl")).apply(&mut attrs);
        AttrMod::Replace(Attribute::single("size", "s")).apply(&mut attrs);
        assert_eq!(attrs.get("size").unwrap().first_str(), Some("s"));

        AttrMod::Remove("size".into()).apply(&mut attrs);
        assert!(attrs.is_empty());
    }

    #[test]
    fn merge_replaces() {
        let mut a = Attributes::new().with("x", "1").with("y", "2");
        let b = Attributes::new().with("y", "9").with("z", "3");
        a.merge(&b);
        assert_eq!(a.get("y").unwrap().first_str(), Some("9"));
        assert_eq!(a.len(), 3);
    }
}
