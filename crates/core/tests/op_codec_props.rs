//! Property tests for the op-layer wire codec: every marshallable
//! [`BoundValue`] survives a marshal/unmarshal round trip, bytes the
//! codec never produced (foreign data bound by non-RNDI clients) fall back
//! to raw [`BoundValue::Bytes`] instead of failing.

use proptest::prelude::*;

use rndi_core::op::codec::{marshal, unmarshal};
use rndi_core::value::{BoundValue, Reference, StoredValue};

fn json_leaf() -> impl Strategy<Value = serde_json::Value> {
    prop_oneof![
        Just(serde_json::Value::Null),
        any::<bool>().prop_map(serde_json::Value::from),
        any::<i64>().prop_map(serde_json::Value::from),
        "[a-zA-Z0-9 ]{0,12}".prop_map(serde_json::Value::from),
    ]
}

fn json_value() -> impl Strategy<Value = serde_json::Value> {
    json_leaf().prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(serde_json::Value::Array),
            proptest::collection::btree_map("[a-z]{1,6}", inner, 0..4)
                .prop_map(|m| { serde_json::Value::Object(m.into_iter().collect()) }),
        ]
    })
}

fn bound_value() -> impl Strategy<Value = BoundValue> {
    prop_oneof![
        Just(BoundValue::Null),
        "[a-zA-Z0-9 _.:/]{0,16}".prop_map(BoundValue::Str),
        any::<i64>().prop_map(BoundValue::I64),
        // JSON has no encoding for NaN/infinity, so the codec only promises
        // round trips for finite floats.
        any::<f64>().prop_map(|f| BoundValue::F64(if f.is_finite() { f } else { 0.5 })),
        any::<bool>().prop_map(BoundValue::Bool),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(BoundValue::Bytes),
        json_value().prop_map(BoundValue::Json),
        "[a-z]{1,8}://[a-z0-9./]{0,20}".prop_map(|url| BoundValue::Reference(Reference::url(url))),
    ]
}

proptest! {
    #[test]
    fn marshal_unmarshal_round_trips(v in bound_value()) {
        let bytes = marshal(&v).expect("marshallable value");
        prop_assert_eq!(unmarshal(&bytes), v);
    }

    #[test]
    fn foreign_bytes_surface_as_raw_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        // Only exercise inputs the codec itself would never emit.
        prop_assume!(StoredValue::decode(&bytes).is_none());
        prop_assert_eq!(unmarshal(&bytes), BoundValue::Bytes(bytes));
    }

    #[test]
    fn unmarshal_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..48)) {
        let _ = unmarshal(&bytes);
    }
}
