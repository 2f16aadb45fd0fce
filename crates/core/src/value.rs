//! The values that can be bound in a context.
//!
//! JNDI binds arbitrary Java objects; the specification's minimum
//! conformance level is "any serializable object". [`BoundValue`] is the
//! Rust analogue: serializable scalars/structures plus the two special cases
//! the federation machinery understands — [`Reference`]s (provider-
//! interpretable pointers, JNDI's `javax.naming.Reference`) and live
//! [`Context`](crate::context::Context) handles.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::context::DirContext;

/// A provider-independent pointer to an object living elsewhere.
///
/// A reference carries a class name (what the object is), a set of typed
/// addresses (where/how to reach it), and optionally the name of an object
/// factory able to reconstruct the live object.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reference {
    /// The type of object this reference points to.
    pub class_name: String,
    /// Typed addresses, e.g. `("URL", "hdns://host2/ctx")`.
    pub addrs: Vec<RefAddr>,
    /// Object factory hint.
    pub factory: Option<String>,
}

/// One typed address within a [`Reference`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefAddr {
    pub addr_type: String,
    pub content: String,
}

impl Reference {
    /// A reference consisting of a single URL address — the form used to
    /// link naming systems into a federation.
    pub fn url(url: impl Into<String>) -> Self {
        Reference {
            class_name: "Context".to_string(),
            addrs: vec![RefAddr {
                addr_type: "URL".to_string(),
                content: url.into(),
            }],
            factory: None,
        }
    }

    /// First address of the given type, if present.
    pub fn addr(&self, addr_type: &str) -> Option<&str> {
        self.addrs
            .iter()
            .find(|a| a.addr_type == addr_type)
            .map(|a| a.content.as_str())
    }

    /// The URL address, if this is a URL reference.
    pub fn url_addr(&self) -> Option<&str> {
        self.addr("URL")
    }
}

/// A value bound under a name.
#[derive(Clone, Default)]
pub enum BoundValue {
    /// Explicit null binding.
    #[default]
    Null,
    /// UTF-8 text.
    Str(String),
    /// 64-bit signed integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Opaque bytes (the "any serializable object" conformance floor —
    /// applications serialize through state factories).
    Bytes(Vec<u8>),
    /// Structured data (maps/arrays/scalars).
    Json(serde_json::Value),
    /// A provider-interpretable reference (federation link, service stub…).
    Reference(Reference),
    /// A live context — binding one naming system into another.
    Context(Arc<dyn DirContext>),
}

impl BoundValue {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Self {
        BoundValue::Str(s.into())
    }

    /// Borrow as `&str` when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            BoundValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            BoundValue::Bytes(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_reference(&self) -> Option<&Reference> {
        match self {
            BoundValue::Reference(r) => Some(r),
            _ => None,
        }
    }

    pub fn as_context(&self) -> Option<Arc<dyn DirContext>> {
        match self {
            BoundValue::Context(c) => Some(c.clone()),
            _ => None,
        }
    }

    /// Whether the value can continue a federated resolution (a context or a
    /// URL reference).
    pub fn is_federation_link(&self) -> bool {
        match self {
            BoundValue::Context(_) => true,
            BoundValue::Reference(r) => r.url_addr().is_some(),
            _ => false,
        }
    }

    /// A short class-name string, analogous to `Binding.getClassName()`.
    pub fn class_name(&self) -> &'static str {
        match self {
            BoundValue::Null => "null",
            BoundValue::Str(_) => "string",
            BoundValue::I64(_) => "i64",
            BoundValue::F64(_) => "f64",
            BoundValue::Bool(_) => "bool",
            BoundValue::Bytes(_) => "bytes",
            BoundValue::Json(_) => "json",
            BoundValue::Reference(_) => "reference",
            BoundValue::Context(_) => "context",
        }
    }
}

impl PartialEq for BoundValue {
    /// Structural equality; two `Context` values compare by pointer
    /// identity (a live context has no meaningful structural equality).
    fn eq(&self, other: &Self) -> bool {
        use BoundValue::*;
        match (self, other) {
            (Null, Null) => true,
            (Str(a), Str(b)) => a == b,
            (I64(a), I64(b)) => a == b,
            (F64(a), F64(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Bytes(a), Bytes(b)) => a == b,
            (Json(a), Json(b)) => a == b,
            (Reference(a), Reference(b)) => a == b,
            (Context(a), Context(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl fmt::Debug for BoundValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundValue::Null => f.write_str("Null"),
            BoundValue::Str(s) => write!(f, "Str({s:?})"),
            BoundValue::I64(v) => write!(f, "I64({v})"),
            BoundValue::F64(v) => write!(f, "F64({v})"),
            BoundValue::Bool(v) => write!(f, "Bool({v})"),
            BoundValue::Bytes(b) => write!(f, "Bytes(len={})", b.len()),
            BoundValue::Json(v) => write!(f, "Json({v})"),
            BoundValue::Reference(r) => write!(f, "Reference({r:?})"),
            BoundValue::Context(_) => f.write_str("Context(..)"),
        }
    }
}

impl From<&str> for BoundValue {
    fn from(s: &str) -> Self {
        BoundValue::Str(s.to_string())
    }
}

impl From<String> for BoundValue {
    fn from(s: String) -> Self {
        BoundValue::Str(s)
    }
}

impl From<i64> for BoundValue {
    fn from(v: i64) -> Self {
        BoundValue::I64(v)
    }
}

impl From<bool> for BoundValue {
    fn from(v: bool) -> Self {
        BoundValue::Bool(v)
    }
}

/// A wire-encodable subset of [`BoundValue`] — what state factories produce
/// and providers actually store. Live `Context` handles are *not* encodable;
/// they must first be converted to URL references.
///
/// Its encoding is text: a tag that no JSON text starts with, then the
/// variant's fields (DESIGN.md, "The value codec").
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum StoredValue {
    Null,
    Str(String),
    I64(i64),
    F64(f64),
    Bool(bool),
    Bytes(Vec<u8>),
    Json(serde_json::Value),
    Reference(Reference),
}

const TAG_NULL: u8 = 0x01;
const TAG_STR: u8 = 0x02;
const TAG_I64: u8 = 0x03;
const TAG_F64: u8 = 0x04;
const TAG_BOOL: u8 = 0x05;
const TAG_BYTES: u8 = 0x06;
const TAG_JSON: u8 = 0x07;
const TAG_REFERENCE: u8 = 0x08;

/// A value as the codec reads it, borrowed from a [`StoredValue`] or a
/// [`BoundValue`], so marshalling copies nothing before it writes.
#[derive(Clone, Copy)]
pub(crate) enum Parts<'a> {
    Null,
    Str(&'a str),
    I64(i64),
    F64(f64),
    Bool(bool),
    Bytes(&'a [u8]),
    Json(&'a serde_json::Value),
    Reference(&'a Reference),
}

impl<'a> Parts<'a> {
    /// `None` for a live context, which has no encoding.
    pub(crate) fn of(value: &'a BoundValue) -> Option<Self> {
        Some(match value {
            BoundValue::Null => Parts::Null,
            BoundValue::Str(s) => Parts::Str(s),
            BoundValue::I64(v) => Parts::I64(*v),
            BoundValue::F64(v) => Parts::F64(*v),
            BoundValue::Bool(v) => Parts::Bool(*v),
            BoundValue::Bytes(b) => Parts::Bytes(b),
            BoundValue::Json(j) => Parts::Json(j),
            BoundValue::Reference(r) => Parts::Reference(r),
            BoundValue::Context(_) => return None,
        })
    }

    /// The encoding, written into one block sized for it (a JSON tree's
    /// text, and texts of 1 KiB and more, excepted).
    pub(crate) fn encode(self) -> Vec<u8> {
        // A length below 1 KiB is two digits at most.
        let text_len = |s: &str| s.len() + 2;
        let (tag, fields_len) = match self {
            Parts::Null => (TAG_NULL, 0),
            Parts::Str(s) => (TAG_STR, s.len()),
            Parts::I64(_) => (TAG_I64, 20),
            Parts::F64(_) => (TAG_F64, 16),
            Parts::Bool(_) => (TAG_BOOL, 1),
            Parts::Bytes(b) => (TAG_BYTES, 2 * b.len()),
            Parts::Json(_) => (TAG_JSON, 63),
            Parts::Reference(r) => {
                let addrs = r.addrs.iter();
                let addrs = addrs.map(|a| text_len(&a.addr_type) + text_len(&a.content));
                let factory = r.factory.as_deref().map_or(1, text_len);
                let len = text_len(&r.class_name) + factory + 2 + addrs.sum::<usize>();
                (TAG_REFERENCE, len)
            }
        };
        let mut out = String::with_capacity(1 + fields_len);
        out.push(char::from(tag));
        match self {
            Parts::Null => {}
            Parts::Str(s) => out.push_str(s),
            Parts::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Parts::F64(v) => put_hex(&mut out, &v.to_bits().to_be_bytes()),
            Parts::Bool(v) => out.push(if v { '1' } else { '0' }),
            Parts::Bytes(b) => put_hex(&mut out, b),
            Parts::Json(j) => {
                let _ = write!(out, "{j}");
            }
            Parts::Reference(r) => {
                put_text(&mut out, &r.class_name);
                match &r.factory {
                    None => put_num(&mut out, 0),
                    Some(f) => {
                        put_num(&mut out, f.len() + 1);
                        out.push_str(f);
                    }
                }
                put_num(&mut out, r.addrs.len());
                for a in &r.addrs {
                    put_text(&mut out, &a.addr_type);
                    put_text(&mut out, &a.content);
                }
            }
        }
        out.into_bytes()
    }
}

impl StoredValue {
    /// Encode to bytes (the marshalling the paper's providers pay for).
    pub fn encode(&self) -> Vec<u8> {
        Parts::encode(match self {
            StoredValue::Null => Parts::Null,
            StoredValue::Str(s) => Parts::Str(s),
            StoredValue::I64(v) => Parts::I64(*v),
            StoredValue::F64(v) => Parts::F64(*v),
            StoredValue::Bool(v) => Parts::Bool(*v),
            StoredValue::Bytes(b) => Parts::Bytes(b),
            StoredValue::Json(j) => Parts::Json(j),
            StoredValue::Reference(r) => Parts::Reference(r),
        })
    }

    /// Decode from bytes: an encoding, or the JSON earlier versions wrote.
    /// `None` for anything else, a malformed or truncated encoding included.
    pub fn decode(bytes: &[u8]) -> Option<StoredValue> {
        if !(TAG_NULL..=TAG_REFERENCE).contains(bytes.first()?) {
            return serde_json::from_slice(bytes).ok();
        }
        let text = std::str::from_utf8(bytes).ok()?;
        let mut rest = &text[1..];
        Some(match bytes[0] {
            TAG_NULL if rest.is_empty() => StoredValue::Null,
            TAG_STR => StoredValue::Str(rest.to_owned()),
            // As `Display` writes it: no `+`, no leading zero, no `-0`.
            TAG_I64 if rest == "0" || !rest.trim_start_matches('-').starts_with(['0', '+']) => {
                StoredValue::I64(rest.parse().ok()?)
            }
            TAG_F64 => {
                let mut bits = [0; 8];
                hex_into(rest, &mut bits).then_some(())?;
                StoredValue::F64(f64::from_bits(u64::from_be_bytes(bits)))
            }
            TAG_BOOL if rest == "1" || rest == "0" => StoredValue::Bool(rest == "1"),
            TAG_BYTES => StoredValue::Bytes(from_hex(rest)?),
            TAG_JSON => {
                // Only the text the encoder writes: no spacing, no repeated key.
                let tree = serde_json::parse(rest).ok()?;
                (tree.to_string() == rest).then_some(StoredValue::Json(tree))?
            }
            TAG_REFERENCE => StoredValue::Reference(Reference {
                class_name: take_text(&mut rest)?.to_owned(),
                factory: match take_num(&mut rest)? {
                    0 => None,
                    n => Some(take_len(&mut rest, n - 1)?.to_owned()),
                },
                addrs: {
                    let count = take_num(&mut rest)?;
                    let mut addrs = Vec::with_capacity(count.min(rest.len() / 2));
                    for _ in 0..count {
                        let addr_type = take_text(&mut rest)?.to_owned();
                        let content = take_text(&mut rest)?.to_owned();
                        addrs.push(RefAddr { addr_type, content });
                    }
                    (rest.is_empty()).then_some(addrs)?
                },
            }),
            _ => return None,
        })
    }

    /// Convert back into a [`BoundValue`].
    pub fn into_bound(self) -> BoundValue {
        match self {
            StoredValue::Null => BoundValue::Null,
            StoredValue::Str(s) => BoundValue::Str(s),
            StoredValue::I64(v) => BoundValue::I64(v),
            StoredValue::F64(v) => BoundValue::F64(v),
            StoredValue::Bool(v) => BoundValue::Bool(v),
            StoredValue::Bytes(b) => BoundValue::Bytes(b),
            StoredValue::Json(v) => BoundValue::Json(v),
            StoredValue::Reference(r) => BoundValue::Reference(r),
        }
    }

    /// Convert a [`BoundValue`]; fails for live contexts, which cannot be
    /// marshalled (bind a [`Reference::url`] instead).
    pub fn try_from_bound(v: &BoundValue) -> Option<StoredValue> {
        Some(match v {
            BoundValue::Null => StoredValue::Null,
            BoundValue::Str(s) => StoredValue::Str(s.clone()),
            BoundValue::I64(x) => StoredValue::I64(*x),
            BoundValue::F64(x) => StoredValue::F64(*x),
            BoundValue::Bool(x) => StoredValue::Bool(*x),
            BoundValue::Bytes(b) => StoredValue::Bytes(b.clone()),
            BoundValue::Json(j) => StoredValue::Json(j.clone()),
            BoundValue::Reference(r) => StoredValue::Reference(r.clone()),
            BoundValue::Context(_) => return None,
        })
    }
}

// The text-safe fields of the value and attribute encodings. A number is
// base-32 digits, low first, one byte each, with `0x20` set on every digit
// but the last: bytes below `0x40`, so the encodings stay text.

pub(crate) fn put_num(out: &mut String, mut n: usize) {
    while n >= 0x20 {
        out.push(char::from(0x20 | (n & 0x1f) as u8));
        n >>= 5;
    }
    out.push(char::from(n as u8));
}

/// Split a number off the front of `rest`: `None` when its digits run out,
/// leave the range, overflow, or end in a zero [`put_num`] does not write.
pub(crate) fn take_num(rest: &mut &str) -> Option<usize> {
    let mut n = 0u64;
    for (i, b) in rest.bytes().enumerate().take(13) {
        let digit = u64::from(b & 0x1f);
        // The 13th digit holds bits 60..65: only four of them fit.
        if b >= 0x40 || (i == 12 && digit > 0xf) {
            return None;
        }
        n |= digit << (5 * i);
        if b & 0x20 == 0 {
            *rest = &rest[i + 1..];
            return usize::try_from(n).ok().filter(|_| i == 0 || digit > 0);
        }
    }
    None
}

/// `s`, after its length.
pub(crate) fn put_text(out: &mut String, s: &str) {
    put_num(out, s.len());
    out.push_str(s);
}

/// Split off what [`put_text`] wrote.
pub(crate) fn take_text<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let len = take_num(rest)?;
    take_len(rest, len)
}

/// Split `len` bytes off the front of `rest`, if they end on a character.
pub(crate) fn take_len<'a>(rest: &mut &'a str, len: usize) -> Option<&'a str> {
    let text = rest.get(..len)?;
    *rest = &rest[len..];
    Some(text)
}

/// Each byte's two lower-case digits.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut pairs = [[0; 2]; 256];
    let mut b = 0;
    while b < 256 {
        pairs[b] = [DIGITS[b >> 4], DIGITS[b & 0xf]];
        b += 1;
    }
    pairs
};

/// What a digit [`put_hex`] writes (lower case only) stands for, and
/// `NOT_HEX` for any other byte.
const HEX_VALUES: [u8; 256] = {
    let mut values = [NOT_HEX; 256];
    let mut d = 0;
    while d < 16 {
        values[HEX_PAIRS[d][1] as usize] = d as u8;
        d += 1;
    }
    values
};
const NOT_HEX: u8 = 0x10;

pub(crate) fn put_hex(out: &mut String, bytes: &[u8]) {
    let mut digits = [[0; 2]; 64];
    for chunk in bytes.chunks(digits.len()) {
        for (pair, &b) in digits.iter_mut().zip(chunk) {
            *pair = HEX_PAIRS[usize::from(b)];
        }
        let digits = digits[..chunk.len()].as_flattened();
        out.push_str(std::str::from_utf8(digits).expect("hex digits are ASCII"));
    }
}

/// Fills `out` with the bytes the digit pairs in `hex` stand for; `false`
/// unless `hex` is exactly `out`'s length in pairs [`put_hex`] writes.
fn hex_into(hex: &str, out: &mut [u8]) -> bool {
    let (pairs, odd) = hex.as_bytes().as_chunks::<2>();
    if !odd.is_empty() || pairs.len() != out.len() {
        return false;
    }
    let mut seen = 0;
    for (b, &[hi, lo]) in out.iter_mut().zip(pairs) {
        let (hi, lo) = (HEX_VALUES[usize::from(hi)], HEX_VALUES[usize::from(lo)]);
        seen |= hi | lo;
        *b = hi << 4 | lo;
    }
    seen < NOT_HEX
}

/// What [`put_hex`] wrote, back as bytes.
pub(crate) fn from_hex(hex: &str) -> Option<Vec<u8>> {
    let mut bytes = vec![0; hex.len() / 2];
    hex_into(hex, &mut bytes).then_some(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_url_roundtrip() {
        let r = Reference::url("hdns://host2/jiniCtx");
        assert_eq!(r.url_addr(), Some("hdns://host2/jiniCtx"));
        assert_eq!(r.addr("NOPE"), None);
        assert!(BoundValue::Reference(r).is_federation_link());
    }

    #[test]
    fn accessors() {
        assert_eq!(BoundValue::str("x").as_str(), Some("x"));
        assert_eq!(BoundValue::from("y").as_str(), Some("y"));
        assert_eq!(BoundValue::Bytes(vec![1]).as_bytes(), Some(&[1u8][..]));
        assert!(BoundValue::Null.as_str().is_none());
    }

    #[test]
    fn stored_value_encode_decode() {
        let vals = [
            StoredValue::Null,
            StoredValue::Str("s".into()),
            StoredValue::I64(-5),
            StoredValue::F64(1.5),
            StoredValue::Bool(true),
            StoredValue::Bytes(vec![0, 255]),
            StoredValue::Json(serde_json::json!({"a": [1, 2]})),
            StoredValue::Reference(Reference::url("jini://h")),
        ];
        for v in vals {
            let bytes = v.encode();
            assert_eq!(StoredValue::decode(&bytes), Some(v));
        }
        assert_eq!(StoredValue::decode(b"garbage"), None);
    }

    #[test]
    fn bound_stored_conversion() {
        let v = BoundValue::str("hello");
        let s = StoredValue::try_from_bound(&v).unwrap();
        assert_eq!(s.into_bound(), v);
    }

    #[test]
    fn class_names() {
        assert_eq!(BoundValue::Null.class_name(), "null");
        assert_eq!(BoundValue::str("x").class_name(), "string");
        assert_eq!(
            BoundValue::Reference(Reference::url("a://b")).class_name(),
            "reference"
        );
    }
}
