//! Shared helpers: marshalling and clock plumbing.

use std::sync::Arc;

use rndi_core::attrs::{AttrValue, Attribute, Attributes};
use rndi_core::error::{NamingError, Result};

// The marshalling codec moved into the core op module (it is now also an
// interceptor concern, not just a provider one); re-exported here so
// provider code keeps its historical imports.
pub use rndi_core::op::codec::{marshal, unmarshal};

/// Serialize an attribute set to a JSON string (for backends whose
/// attribute model is flat strings).
pub fn attrs_to_json(attrs: &Attributes) -> Result<String> {
    serde_json::to_string(attrs)
        .map_err(|e| NamingError::service(format!("attributes did not serialize: {e}")))
}

/// Parse attributes serialized with [`attrs_to_json`]. Corrupt input is an
/// error — silently dropping a stored attribute set would make bindings
/// "lose" their directory entries without a trace.
pub fn attrs_from_json(s: &str) -> Result<Attributes> {
    serde_json::from_str(s)
        .map_err(|e| NamingError::service(format!("stored attributes are corrupt: {e}")))
}

/// The millisecond clock providers read: the process's one clock, shared
/// with the backends they wrap.
pub use rndi_obs::clock::Clock as MsClock;

/// A forwarding newtype, kept because the separately built `benchmark/`
/// crate constructs it; an `Arc` of any clock is already an
/// `Arc<dyn MsClock>`.
pub struct RlusClock(pub Arc<dyn rlus::Clock>);

impl MsClock for RlusClock {
    fn now_ms(&self) -> u64 {
        self.0.now_ms()
    }
}

/// Build a single-valued attribute list from `(id, value)` pairs — a
/// convenience for tests and examples.
pub fn attrs(pairs: &[(&str, &str)]) -> Attributes {
    pairs
        .iter()
        .map(|(k, v)| Attribute {
            id: k.to_string(),
            values: vec![AttrValue::Str(v.to_string())],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rndi_core::value::{BoundValue, Reference};

    #[test]
    fn marshal_roundtrip() {
        let v = BoundValue::str("hello");
        let bytes = marshal(&v).unwrap();
        assert_eq!(unmarshal(&bytes), v);

        let r = BoundValue::Reference(Reference::url("jini://h"));
        assert_eq!(unmarshal(&marshal(&r).unwrap()), r);
    }

    #[test]
    fn marshal_rejects_live_context() {
        use rndi_core::mem::MemContext;
        use std::sync::Arc as StdArc;
        let v = BoundValue::Context(StdArc::new(MemContext::new()));
        assert!(matches!(marshal(&v), Err(NamingError::NotSupported { .. })));
    }

    #[test]
    fn foreign_bytes_pass_through() {
        let v = unmarshal(b"\x00\x01 not json");
        assert!(matches!(v, BoundValue::Bytes(_)));
    }

    #[test]
    fn attrs_json_roundtrip() {
        let a = attrs(&[("os", "linux"), ("cpu", "8")]);
        let s = attrs_to_json(&a).unwrap();
        let back = attrs_from_json(&s).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn corrupt_attrs_surface_as_errors() {
        assert!(matches!(
            attrs_from_json("garbage"),
            Err(NamingError::ServiceFailure { .. })
        ));
    }
}
