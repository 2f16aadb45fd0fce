//! Fuzz-style hardening for the wire decoders: arbitrary, malformed, or
//! truncated bytes must surface as errors — never panics, never huge
//! allocations from attacker-controlled length prefixes — and every
//! well-formed envelope must round-trip exactly.

use proptest::prelude::*;

use rndi_core::attrs::{AttrMod, Attribute, Attributes};
use rndi_core::op::ALL_OP_KINDS;
use rndi_core::value::StoredValue;
use rndi_net::conn::{FrameBuf, ResponseBody, ServerConn};
use rndi_net::proto::{self, Envelope, EnvelopeBody};
use rndi_obs::TraceCtx;

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

proptest! {
    /// Arbitrary bytes through the frame reassembler: error, frame, or
    /// "need more" — no panic.
    #[test]
    fn frame_reassembly_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut fb = FrameBuf::new();
        fb.push(&bytes);
        while let Ok(Some(_)) = fb.next_frame() {}
    }

    /// A length prefix promising more than the cap is rejected before any
    /// allocation, regardless of what follows.
    #[test]
    fn oversized_length_prefix_is_rejected(
        extra in 1u64..u32::MAX as u64 - proto::MAX_FRAME_LEN as u64,
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let len = (proto::MAX_FRAME_LEN as u64 + extra) as u32;
        let mut fb = FrameBuf::new();
        fb.push(&len.to_be_bytes());
        fb.push(&tail);
        prop_assert!(fb.next_frame().is_err());
    }

    /// A well-formed frame truncated at any byte is withheld — never a
    /// partial frame — until the rest arrives.
    #[test]
    fn truncated_frames_are_withheld(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..68,
    ) {
        let framed = framed(&payload);
        let cut = cut.min(framed.len());
        let mut fb = FrameBuf::new();
        fb.push(&framed[..cut]);
        if cut < framed.len() {
            prop_assert_eq!(fb.next_frame().expect("no framing error"), None);
            fb.push(&framed[cut..]);
        }
        prop_assert_eq!(fb.next_frame().expect("intact frame"), Some(payload));
    }

    /// A wire op whose kind string is not one of ours materializes to an
    /// error, and never reaches the bytes codec.
    #[test]
    fn unknown_op_kinds_error(kind in "[a-z]{1,12}") {
        let known = ALL_OP_KINDS.iter().any(|k| k.label() == kind);
        let op = proto::WireOp {
            kind,
            name: "a".into(),
            payload: proto::WirePayload::None,
            attrs: None,
            meta: Default::default(),
        };
        prop_assert_eq!(proto::decode_op(&op).is_ok(), known);
        let env = Envelope {
            req_id: 1,
            body: EnvelopeBody::Call { op: Box::new(op), deadline_ms: 0, trace: None },
        };
        prop_assert_eq!(proto::bin::encode_envelope(&env).is_ok(), known);
    }
}

// --------------------------------------------------- binary envelope --

fn arb_stored() -> impl Strategy<Value = StoredValue> {
    prop_oneof![
        Just(StoredValue::Null),
        "[ -~]{0,16}".prop_map(StoredValue::Str),
        any::<i64>().prop_map(StoredValue::I64),
        // Constructed from an integer so the value is never NaN (which
        // would defeat the equality assertion, not the codec).
        any::<i32>().prop_map(|i| StoredValue::F64(f64::from(i) / 8.0)),
        any::<bool>().prop_map(StoredValue::Bool),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(StoredValue::Bytes),
        ("[a-z]{1,6}", any::<bool>()).prop_map(|(k, v)| {
            StoredValue::Json(serde_json::Value::Object(
                [(k, serde_json::Value::Bool(v))].into_iter().collect(),
            ))
        }),
    ]
}

fn arb_attrs() -> impl Strategy<Value = Attributes> {
    proptest::collection::btree_map("[a-z]{1,8}", "[ -~]{0,12}", 0..4).prop_map(|m| {
        let mut attrs = Attributes::new();
        for (k, v) in m {
            attrs = attrs.with(k, v.as_str());
        }
        attrs
    })
}

fn arb_payload() -> impl Strategy<Value = proto::WirePayload> {
    prop_oneof![
        Just(proto::WirePayload::None),
        arb_stored().prop_map(proto::WirePayload::Value),
        (
            proptest::collection::vec(any::<u8>(), 0..32),
            "[a-zA-Z.]{0,16}"
        )
            .prop_map(|(bytes, class_name)| proto::WirePayload::Wire { bytes, class_name }),
        (arb_stored(), "[a-zA-Z.]{0,16}")
            .prop_map(|(value, class_name)| { proto::WirePayload::Stored { value, class_name } }),
        "[ -~]{0,16}".prop_map(proto::WirePayload::NewName),
        proptest::collection::vec(
            prop_oneof![
                ("[a-z]{1,8}", "[ -~]{0,8}")
                    .prop_map(|(id, v)| AttrMod::Add(Attribute::single(id, v.as_str()))),
                ("[a-z]{1,8}", "[ -~]{0,8}")
                    .prop_map(|(id, v)| AttrMod::Replace(Attribute::single(id, v.as_str()))),
                "[a-z]{1,8}".prop_map(AttrMod::Remove),
                "[a-z]{1,8}".prop_map(|id| AttrMod::RemoveValues(Attribute::new(id))),
            ],
            0..3
        )
        .prop_map(proto::WirePayload::Mods),
        (
            "[(a-z=*)]{0,12}",
            prop_oneof![Just("object"), Just("onelevel"), Just("subtree")],
            any::<u64>(),
            proptest::option::of(proptest::collection::vec(
                "[a-z]{1,6}".prop_map(String::from),
                0..3
            )),
            any::<bool>(),
        )
            .prop_map(
                |(filter, scope, count_limit, return_attrs, return_values)| {
                    proto::WirePayload::Query {
                        filter,
                        scope: scope.to_string(),
                        count_limit,
                        return_attrs,
                        return_values,
                    }
                }
            ),
    ]
}

fn arb_wire_op() -> impl Strategy<Value = proto::WireOp> {
    (
        0..ALL_OP_KINDS.len(),
        "[ -~]{0,24}",
        arb_payload(),
        proptest::option::of(arb_attrs()),
        proptest::collection::btree_map("[a-z.]{1,10}", "[ -~]{0,16}", 0..3),
    )
        .prop_map(|(kind, name, payload, attrs, meta)| proto::WireOp {
            kind: ALL_OP_KINDS[kind].label().to_string(),
            name,
            payload,
            attrs,
            meta,
        })
}

fn arb_wire_error() -> impl Strategy<Value = proto::WireError> {
    let s = || "[ -~]{0,20}".prop_map(String::from);
    prop_oneof![
        s().prop_map(|name| proto::WireError::NameNotFound { name }),
        s().prop_map(|name| proto::WireError::AlreadyBound { name }),
        s().prop_map(|name| proto::WireError::NotAContext { name }),
        s().prop_map(|name| proto::WireError::ContextExpected { name }),
        (s(), s()).prop_map(|(name, reason)| proto::WireError::InvalidName { name, reason }),
        (s(), s())
            .prop_map(|(filter, reason)| proto::WireError::InvalidSearchFilter { filter, reason }),
        s().prop_map(|operation| proto::WireError::NotSupported { operation }),
        s().prop_map(|detail| proto::WireError::NoPermission { detail }),
        s().prop_map(|detail| proto::WireError::ServiceFailure { detail }),
        s().prop_map(|detail| proto::WireError::Timeout { detail }),
        s().prop_map(|scheme| proto::WireError::NoProvider { scheme }),
        s().prop_map(|detail| proto::WireError::ConfigurationError { detail }),
        s().prop_map(|name| proto::WireError::ContextNotEmpty { name }),
        s().prop_map(|name| proto::WireError::LeaseExpired { name }),
        (arb_stored(), s()).prop_map(|(resolved, remaining)| proto::WireError::Continue {
            resolved,
            remaining
        }),
        any::<u64>().prop_map(|depth| proto::WireError::FederationDepthExceeded { depth }),
        any::<u64>().prop_map(|retry_after_ms| proto::WireError::Overloaded { retry_after_ms }),
    ]
}

fn arb_outcome() -> impl Strategy<Value = proto::WireOutcome> {
    prop_oneof![
        Just(proto::WireOutcome::Done),
        arb_stored().prop_map(proto::WireOutcome::Value),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(proto::WireOutcome::Wire),
        proptest::collection::vec(
            ("[ -~]{0,12}", "[a-zA-Z.]{0,12}")
                .prop_map(|(name, class_name)| { proto::WireNameClass { name, class_name } }),
            0..3
        )
        .prop_map(proto::WireOutcome::Names),
        proptest::collection::vec(
            ("[ -~]{0,12}", arb_stored())
                .prop_map(|(name, value)| proto::WireBinding { name, value }),
            0..3
        )
        .prop_map(proto::WireOutcome::Bindings),
        arb_attrs().prop_map(proto::WireOutcome::Attrs),
        proptest::collection::vec(
            (
                "[ -~]{0,12}",
                proptest::option::of(arb_stored()),
                arb_attrs()
            )
                .prop_map(|(name, value, attrs)| proto::WireHit { name, value, attrs }),
            0..3
        )
        .prop_map(proto::WireOutcome::Found),
    ]
}

fn arb_trace() -> impl Strategy<Value = TraceCtx> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
        |(trace_id, span_id, parent_span, depth)| TraceCtx {
            trace_id,
            span_id,
            parent_span,
            depth,
        },
    )
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        any::<u64>(),
        prop_oneof![
            Just(EnvelopeBody::Ping),
            Just(EnvelopeBody::Pong),
            (
                arb_wire_op(),
                any::<u64>(),
                proptest::option::of(arb_trace())
            )
                .prop_map(|(op, deadline_ms, trace)| EnvelopeBody::Call {
                    op: Box::new(op),
                    deadline_ms,
                    trace,
                }),
            arb_outcome().prop_map(EnvelopeBody::Ok),
            arb_wire_error().prop_map(EnvelopeBody::Err),
        ],
    )
        .prop_map(|(req_id, body)| Envelope { req_id, body })
}

proptest! {
    /// Every envelope — all op kinds, all payload shapes, all outcome and
    /// error variants — round-trips the binary codec exactly.
    #[test]
    fn binary_envelope_roundtrip(env in arb_envelope()) {
        let bytes = proto::bin::encode_envelope(&env).expect("encodes");
        let back = proto::bin::decode_envelope(&bytes).expect("decodes");
        prop_assert_eq!(back, env);
    }

    /// Arbitrary bytes through the binary decoder: typed error or valid
    /// envelope, never a panic.
    #[test]
    fn binary_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..192)) {
        let _ = proto::bin::decode_envelope(&bytes);
    }

    /// A well-formed binary envelope truncated at any byte is an error,
    /// and appending trailing garbage is too (frames are exact).
    #[test]
    fn truncated_binary_envelopes_error(env in arb_envelope(), cut in 0usize..4096) {
        let bytes = proto::bin::encode_envelope(&env).expect("encodes");
        let cut = cut % bytes.len().max(1);
        if cut < bytes.len() {
            prop_assert!(proto::bin::decode_envelope(&bytes[..cut]).is_err());
        }
        let mut padded = bytes;
        padded.push(0);
        prop_assert!(proto::bin::decode_envelope(&padded).is_err());
    }

    /// A connection that opens with anything but the exact preamble —
    /// another version byte, a bare length-prefixed frame as the retired
    /// JSON protocol sent, noise — is refused as soon as its fourth byte
    /// arrives: before a single frame is buffered, with nothing
    /// acknowledged and nothing decoded, whatever follows.
    #[test]
    fn server_conn_refuses_any_other_opening(
        first4 in any::<[u8; 4]>(),
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assume!(first4 != proto::PREAMBLE_V2);
        let mut conn = ServerConn::new();
        prop_assert!(conn.receive(&first4).is_err());
        prop_assert!(conn.pending_out().is_empty());
        prop_assert!(conn.push_response(0, ResponseBody::Pong).is_err());

        let mut conn = ServerConn::new();
        let mut opening = first4.to_vec();
        opening.extend_from_slice(&tail);
        prop_assert!(conn.receive(&opening).is_err());
        prop_assert!(conn.pending_out().is_empty());
    }

    /// A hostile frame length after a valid preamble is rejected before
    /// allocation.
    #[test]
    fn server_conn_rejects_oversized_frames(oversize in 1u32..1024) {
        let mut conn = ServerConn::new();
        let mut bytes = proto::PREAMBLE_V2.to_vec();
        bytes.extend_from_slice(&(proto::MAX_FRAME_LEN as u32 + oversize).to_be_bytes());
        prop_assert!(conn.receive(&bytes).is_err());
    }
}
