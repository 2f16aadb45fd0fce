//! Shared helpers: marshalling and clock plumbing.

use std::sync::Arc;

use rndi_core::attrs::{AttrValue, Attribute, Attributes};

// The marshalling codec moved into the core op module (it is now also an
// interceptor concern, not just a provider one); re-exported here so
// provider code keeps its historical imports.
pub use rndi_core::op::codec::{marshal, unmarshal};

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
    use rndi_core::error::NamingError;
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
}
