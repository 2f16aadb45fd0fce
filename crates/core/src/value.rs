//! The values that can be bound in a context.
//!
//! JNDI binds arbitrary Java objects; the specification's minimum
//! conformance level is "any serializable object". [`BoundValue`] is the
//! Rust analogue: serializable scalars/structures plus the two special cases
//! the federation machinery understands — [`Reference`]s (provider-
//! interpretable pointers, JNDI's `javax.naming.Reference`) and live
//! [`Context`](crate::context::Context) handles.

use std::fmt;
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

impl StoredValue {
    /// Encode to bytes (the marshalling the paper's providers pay for).
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("StoredValue is always serializable")
    }

    /// Decode from bytes.
    pub fn decode(bytes: &[u8]) -> Option<StoredValue> {
        serde_json::from_slice(bytes).ok()
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
