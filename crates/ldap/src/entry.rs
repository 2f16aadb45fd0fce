//! Directory entries.
//!
//! An entry is one block, an `Arc<str>` written once at its final length:
//!
//! ```text
//! block = number(n) key dn record
//! key   = the DN's tree key (`Dn::push_key`): RDNs root first, folded,
//!         joined by KEY_SEP — n bytes, as long as the DN's text
//! dn    = the DN's canonical text, n bytes
//! ```
//!
//! and [`LdapEntry`] is the 16-byte handle to it, so the tree, its postings
//! and every reader that holds an entry share one block, and a clone is a
//! reference-count step. The tree orders and finds entries by the key;
//! [`LdapEntry::dn`] is a [`Dn`] viewing the DN's stretch.
//!
//! The *record* is every `(attribute, values)` pair the entry holds.
//! Attributes follow each other in case-folded id order, one per folded id,
//! each as its id and then its values, in the order they arrived. An id the
//! standard schema names, spelt as it spells it, is one byte, `0x40` + its
//! place in `KNOWN_IDS`; any other is its length and its text. A value is
//! its length, doubled and plus one when another value of the attribute
//! follows, and its text. A number is written as base-32 digits, low first,
//! one byte each with `0x20` set on every digit but the last — all below
//! `0x40`, so an id's first byte says which form it takes, and the block
//! is text whose every field is a slice of it. Readers hand out views into
//! the block; every builder writes a new one.

use std::borrow::Cow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::Hasher;
use std::ops::Range;
use std::sync::Arc;

use crate::dn::Dn;

/// The attribute types [`Schema::standard`](crate::schema::Schema::standard)
/// names, which a record writes as one byte each: an ASCII one, so at most
/// 64 of them.
const KNOWN_IDS: [&str; 18] = [
    "cn",
    "cpuCount",
    "description",
    "endpoint",
    "l",
    "memoryMb",
    "o",
    "objectClass",
    "os",
    "ou",
    "owner",
    "rndiClass",
    "rndiValue",
    "seeAlso",
    "serialNumber",
    "sn",
    "telephoneNumber",
    "userPassword",
];
const _: () = assert!(KNOWN_IDS.len() <= 0x40);

/// One multi-valued attribute of an entry (string values, per common LDAP
/// usage), borrowed from the entry's record. Its values are a set under
/// ASCII case folding, in the order they arrived.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LdapAttr<'a> {
    id: &'a str,
    /// The values, as the record writes them.
    values: &'a str,
}

impl<'a> LdapAttr<'a> {
    pub fn id(self) -> &'a str {
        self.id
    }

    pub fn values(self) -> impl Iterator<Item = &'a str> {
        let mut rest = self.values;
        std::iter::from_fn(move || (!rest.is_empty()).then(|| take_value(&mut rest).0))
    }

    /// Whether a value is `value` under ASCII case folding.
    fn holds(self, value: &str) -> bool {
        self.values().any(|v| v.eq_ignore_ascii_case(value))
    }
}

impl fmt::Debug for LdapAttr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.id)?;
        f.debug_list().entries(self.values()).finish()
    }
}

/// An entry: a DN plus attributes, one per case-insensitive id, in one
/// shared block laid out as the module documentation describes. Equal
/// entries have equal DNs, under LDAP case rules, and equal records.
#[derive(Clone)]
pub struct LdapEntry(Arc<str>);

impl PartialEq for LdapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dn_text().eq_ignore_ascii_case(other.dn_text()) && self.record() == other.record()
    }
}

impl Eq for LdapEntry {}

impl fmt::Debug for LdapEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let attrs: Vec<LdapAttr<'_>> = self.attrs().collect();
        let mut out = f.debug_struct("LdapEntry");
        out.field("dn", &self.dn()).field("attrs", &attrs).finish()
    }
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

/// Append `n` to `record` in base-32 digits.
fn put_num(record: &mut String, mut n: usize) {
    while n >= 0x20 {
        record.push(char::from(0x20 | (n & 0x1f) as u8));
        n >>= 5;
    }
    record.push(char::from(n as u8));
}

/// Split a number off the front of `rest`.
fn take_num(rest: &mut &str) -> usize {
    let (mut n, mut digits) = (0, 0);
    for b in rest.bytes() {
        n |= usize::from(b & 0x1f) << (5 * digits);
        digits += 1;
        if b & 0x20 == 0 {
            break;
        }
    }
    *rest = &rest[digits..];
    n
}

fn put_id(record: &mut String, id: &str) {
    match KNOWN_IDS.iter().position(|known| *known == id) {
        Some(at) => record.push(char::from(0x40 + at as u8)),
        None => {
            put_num(record, id.len());
            record.push_str(id);
        }
    }
}

fn put_value(record: &mut String, value: &str, more: bool) {
    put_num(record, value.len() << 1 | usize::from(more));
    record.push_str(value);
}

/// Split a value off the front of `rest`, with whether another value of
/// its attribute follows it.
fn take_value<'a>(rest: &mut &'a str) -> (&'a str, bool) {
    let n = take_num(rest);
    let (value, tail) = rest.split_at(n >> 1);
    *rest = tail;
    (value, n & 1 == 1)
}

/// Split an attribute off the front of `rest`; `None` at its end.
fn take_attr<'a>(rest: &mut &'a str) -> Option<LdapAttr<'a>> {
    let id = match *rest.as_bytes().first()? {
        code @ 0x40.. => {
            *rest = &rest[1..];
            KNOWN_IDS[usize::from(code - 0x40)]
        }
        _ => {
            let len = take_num(rest);
            let (id, tail) = rest.split_at(len);
            *rest = tail;
            id
        }
    };
    let values = *rest;
    while take_value(rest).1 {}
    let values = &values[..values.len() - rest.len()];
    Some(LdapAttr { id, values })
}

thread_local! {
    /// Where this thread writes a block before copying it into the entry's
    /// `Arc<str>`, which is then the one allocation an entry costs.
    static SCRATCH: Cell<String> = const { Cell::new(String::new()) };
}

/// The entry whose block `write` produces, in an allocation of exactly its
/// length.
fn write_block(write: impl FnOnce(&mut String)) -> LdapEntry {
    // `try_with`: an entry may be built while a thread's locals go away.
    let mut text = SCRATCH.try_with(Cell::take).unwrap_or_default();
    text.clear();
    write(&mut text);
    let block = Arc::from(text.as_str());
    let _ = SCRATCH.try_with(|scratch| scratch.set(text));
    LdapEntry(block)
}

/// Append the head of `dn`'s block — its key's length, its key, its text —
/// to `block`.
fn put_head(block: &mut String, dn: &Dn) {
    put_num(block, dn.as_str().len());
    dn.push_key(block);
    block.push_str(dn.as_str());
}

impl LdapEntry {
    /// The entry named `dn`, holding no attribute.
    pub fn new(dn: Dn) -> Self {
        write_block(|block| put_head(block, &dn))
    }

    /// Where the key starts, and its length (the DN's too).
    fn key_at(&self) -> (usize, usize) {
        let mut rest = &*self.0;
        let n = take_num(&mut rest);
        (self.0.len() - rest.len(), n)
    }

    /// The block split after its DN: `(head, record)`.
    fn split(&self) -> (&str, &str) {
        let (at, n) = self.key_at();
        self.0.split_at(at + 2 * n)
    }

    /// The tree key: where the tree files this entry.
    pub(crate) fn key(&self) -> &str {
        let (at, n) = self.key_at();
        &self.0[at..at + n]
    }

    fn dn_text(&self) -> &str {
        let (at, n) = self.key_at();
        &self.0[at + n..at + 2 * n]
    }

    fn record(&self) -> &str {
        self.split().1
    }

    /// The entry's DN: a view of its block.
    pub fn dn(&self) -> Dn {
        let (at, n) = self.key_at();
        Dn::in_block(&self.0, at + n..at + 2 * n)
    }

    /// This entry's attributes under `dn`, in a new block.
    pub(crate) fn renamed(&self, dn: &Dn) -> LdapEntry {
        write_block(|block| {
            put_head(block, dn);
            block.push_str(self.record());
        })
    }

    /// Whether `self` and `other` are handles to one block.
    #[cfg(test)]
    pub(crate) fn shares_block_with(&self, other: &LdapEntry) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Builder-style attribute insertion (adds a value).
    pub fn with(mut self, id: &str, value: impl AsRef<str>) -> Self {
        self.add_value(id, value);
        self
    }

    /// Each attribute with the bytes it takes in the record.
    fn spans(&self) -> impl Iterator<Item = (Range<usize>, LdapAttr<'_>)> {
        let record = self.record();
        let (mut rest, end) = (record, record.len());
        std::iter::from_fn(move || {
            let start = end - rest.len();
            let attr = take_attr(&mut rest)?;
            Some((start..end - rest.len(), attr))
        })
    }

    /// `id`'s attribute and the bytes it takes (`Ok`), or the empty range
    /// where it would be written (`Err`).
    fn position(&self, id: &str) -> Result<(Range<usize>, LdapAttr<'_>), Range<usize>> {
        for (span, attr) in self.spans() {
            match cmp_folded(attr.id, id) {
                Ordering::Less => {}
                Ordering::Equal => return Ok((span, attr)),
                Ordering::Greater => return Err(span.start..span.start),
            }
        }
        let end = self.record().len();
        Err(end..end)
    }

    /// This entry with `span` of its record — an attribute's bytes, or
    /// none — replaced by the attribute `id` holding `values`, which are
    /// distinct: by nothing when there are none.
    fn rewritten<'v>(
        &self,
        span: Range<usize>,
        id: &str,
        values: impl Iterator<Item = &'v str>,
    ) -> LdapEntry {
        let (head, record) = self.split();
        let mut values = values.peekable();
        write_block(|block| {
            block.push_str(head);
            block.push_str(&record[..span.start]);
            if values.peek().is_some() {
                put_id(block, id);
            }
            while let Some(value) = values.next() {
                put_value(block, value, values.peek().is_some());
            }
            block.push_str(&record[span.end..]);
        })
    }

    /// Add `value` to `id`'s attribute, unless it holds it already under
    /// ASCII case folding.
    pub fn add_value(&mut self, id: &str, value: impl AsRef<str>) {
        let value = value.as_ref();
        *self = match self.position(id) {
            Ok((_, held)) if held.holds(value) => return,
            Ok((span, held)) => self.rewritten(span, held.id, held.values().chain([value])),
            Err(at) => self.rewritten(at, id, [value].into_iter()),
        };
    }

    /// Replace an attribute's values wholesale, keeping the first of those
    /// that fold alike; empty removes it.
    pub fn replace(&mut self, id: &str, values: Vec<String>) {
        let first =
            |(at, v): &(usize, &String)| !values[..*at].iter().any(|u| u.eq_ignore_ascii_case(v));
        let distinct = values
            .iter()
            .enumerate()
            .filter(first)
            .map(|(_, v)| v.as_str());
        let span = self.position(id).map_or_else(|at| at, |(span, _)| span);
        *self = self.rewritten(span, id, distinct);
    }

    /// Remove specific values (removes the attribute when none remain);
    /// with an empty `values` list, removes the attribute entirely.
    pub fn remove_values(&mut self, id: &str, values: &[String]) {
        let Ok((span, held)) = self.position(id) else {
            return;
        };
        let kept =
            |v: &&str| !values.is_empty() && !values.iter().any(|rm| rm.eq_ignore_ascii_case(v));
        *self = self.rewritten(span, held.id, held.values().filter(kept));
    }

    pub fn get(&self, id: &str) -> Option<LdapAttr<'_>> {
        self.position(id).ok().map(|(_, attr)| attr)
    }

    /// First value of an attribute.
    pub fn first(&self, id: &str) -> Option<&str> {
        self.get(id)?.values().next()
    }

    pub fn has(&self, id: &str) -> bool {
        self.position(id).is_ok()
    }

    /// Whether the attribute holds `value` (case-insensitive).
    pub fn has_value(&self, id: &str, value: &str) -> bool {
        self.get(id).is_some_and(|a| a.holds(value))
    }

    /// The attributes, ordered by case-folded id.
    pub fn attrs(&self) -> impl Iterator<Item = LdapAttr<'_>> {
        self.spans().map(|(_, attr)| attr)
    }

    /// Every `(attribute id, value)` the entry holds.
    pub fn pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs()
            .flat_map(|a| a.values().map(move |v| (a.id, v)))
    }

    /// A copy with only the requested attribute ids — the projection
    /// applied to search results.
    pub fn project(&self, ids: &[String]) -> LdapEntry {
        let asked = |attr: LdapAttr<'_>| ids.iter().any(|id| id.eq_ignore_ascii_case(attr.id));
        let (head, record) = self.split();
        write_block(|block| {
            block.push_str(head);
            for (span, _) in self.spans().filter(|&(_, attr)| asked(attr)) {
                block.push_str(&record[span]);
            }
        })
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
        assert_eq!((p.first("cn"), p.dn()), (Some("x"), e.dn()));
    }

    #[test]
    fn an_entry_is_one_block_behind_a_16_byte_handle() {
        assert_eq!(std::mem::size_of::<LdapEntry>(), 16);
        let e = LdapEntry::new(Dn::parse("CN=X,o=y").unwrap()).with("cn", "X");
        let block = &*e.0;
        assert_eq!(block, "\u{8}o=y\u{1f}cn=xcn=X,o=y\u{40}\u{2}X");
        assert_eq!(
            (e.key(), e.dn_text(), e.record()),
            ("o=y\u{1f}cn=x", "cn=X,o=y", "@\u{2}X")
        );
        let dn = e.dn();
        assert_eq!(dn.as_str(), "cn=X,o=y");
        assert!(Arc::ptr_eq(&e.0, &e.clone().0), "a clone shares the block");
        // Renamed: a new head, the same record.
        let renamed = e.renamed(&Dn::parse("cn=z,o=y").unwrap());
        assert_eq!(
            (renamed.key(), renamed.record()),
            ("o=y\u{1f}cn=z", e.record())
        );
        let root = LdapEntry::new(Dn::root());
        assert_eq!((&*root.0, root.dn().is_root()), ("\u{0}", true));
    }
}
