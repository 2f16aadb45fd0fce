//! The wire protocol: framing, the connection preamble, and the message
//! schema. This module is *pure* — no sockets, no threads — so every
//! codec path is unit- and property-testable in isolation; the sans-IO
//! connection machinery lives in [`crate::conn`] and the IO strategies in
//! [`crate::server`]/[`crate::client`].
//!
//! A connection opens with the 4-byte preamble [`PREAMBLE_V2`] (`RNI\x02`:
//! magic + protocol byte), which the server echoes back as its
//! acknowledgement; a connection that opens with anything else is refused.
//! Every subsequent frame is a big-endian `u32` length prefix followed by
//! that many payload bytes (capped at [`MAX_FRAME_LEN`]). The payload is a
//! compact binary [`Envelope`] carrying a request ID, so many calls can be
//! in flight on one connection and responses may arrive out of order. A
//! call's [`TraceCtx`](rndi_obs::TraceCtx) crosses in the envelope's
//! `trace` field and nowhere else. See [`bin`] for the byte-level codec —
//! [`bin::encode_envelope`] / [`bin::decode_envelope`] are the only
//! message↔bytes entry points.
//!
//! The message schema reuses the codec types the in-process pipeline
//! already standardised on: values cross the wire as
//! [`StoredValue`] (exactly what
//! `rndi_core::op::codec` marshals), names and filters as their canonical
//! string forms, and errors as a mirrored enum that round-trips every
//! [`NamingError`] variant — including federation `Continue`, so a remote
//! provider can hand resolution back across the wire.
//!
//! Not everything can cross a socket: live `Context` values and event
//! listeners are process-local. Encoding them fails with
//! [`NamingError::NotSupported`] before any bytes are written.

pub mod bin;

use std::collections::BTreeMap;

use rndi_core::attrs::{AttrMod, Attributes};
use rndi_core::context::{Binding, NameClassPair, SearchControls, SearchItem, SearchScope};
use rndi_core::error::{NamingError, Result};
use rndi_core::filter::Filter;
use rndi_core::name::CompositeName;
use rndi_core::op::{NamingOp, OpKind, OpOutcome, OpPayload, ALL_OP_KINDS};
use rndi_core::value::{BoundValue, StoredValue};

/// Hard cap on a single frame's payload, request or response.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// The 4-byte preamble a client sends on connect (and the server echoes
/// back as its acknowledgement): magic + protocol byte.
pub const PREAMBLE_V2: [u8; 4] = *b"RNI\x02";

// ----------------------------------------------------------- messages --

/// One wire message: a request ID plus a body, in either direction. Request
/// IDs are allocated by the client and echoed by the server, which is
/// what lets one connection carry many in-flight calls (pipelining) and
/// deliver responses out of order.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    pub req_id: u64,
    pub body: EnvelopeBody,
}

/// The body of an [`Envelope`].
#[derive(Clone, Debug, PartialEq)]
pub enum EnvelopeBody {
    /// Connection health probe; answered with [`EnvelopeBody::Pong`].
    Ping,
    Pong,
    /// Execute one naming operation. `deadline_ms` is the client's
    /// remaining per-request budget (`0` = no deadline). `trace` is the
    /// caller's trace context — the only carrier that crosses the wire.
    Call {
        op: Box<WireOp>,
        deadline_ms: u64,
        trace: Option<rndi_obs::TraceCtx>,
    },
    Ok(WireOutcome),
    Err(WireError),
    /// A telemetry request: scrape the serving instance over
    /// the same socket as data ops. Answered with
    /// [`EnvelopeBody::AdminOk`] or [`EnvelopeBody::Err`].
    Admin(AdminRequest),
    AdminOk(AdminReply),
    /// A cluster membership exchange: gossip sync or a ferried
    /// group-communication frame. Answered with [`EnvelopeBody::GossipOk`]
    /// or [`EnvelopeBody::Err`].
    Gossip(GossipRequest),
    GossipOk(GossipReply),
}

/// The admin request family: remote scrape of one serving instance.
/// Unknown kinds decode as clean typed errors, never panics, so newer
/// clients degrade gracefully against older servers and vice versa.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdminRequest {
    /// The instance's full metrics snapshot (its registry, serialized).
    Metrics,
    /// Trace-ring contents. `trace_id != 0` selects one trace's spans;
    /// otherwise `slowest != 0` selects the full traces of the N slowest
    /// roots; otherwise every buffered span.
    TraceDump { trace_id: u64, slowest: u32 },
    /// Uptime, connection occupancy, shard inbox depth, request/error
    /// totals, and trace-ring drop counts.
    Health,
}

/// The reply to an [`AdminRequest`], same order of kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum AdminReply {
    Metrics(rndi_obs::MetricsSnapshot),
    TraceDump(Vec<rndi_obs::SpanRecord>),
    Health(rndi_obs::HealthSummary),
}

/// One member's lifecycle state as gossiped between nodes (the
/// `Alive → Suspect → Dead → Quarantined` machine lives in
/// `rndi-cluster`; the wire only carries the verdicts).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemberState {
    Alive,
    Suspect,
    Dead,
    Quarantined,
}

impl MemberState {
    /// Stable wire tag.
    pub fn tag(self) -> u8 {
        match self {
            MemberState::Alive => 0,
            MemberState::Suspect => 1,
            MemberState::Dead => 2,
            MemberState::Quarantined => 3,
        }
    }

    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Option<MemberState> {
        Some(match tag {
            0 => MemberState::Alive,
            1 => MemberState::Suspect,
            2 => MemberState::Dead,
            3 => MemberState::Quarantined,
            _ => return None,
        })
    }
}

/// One row of a gossiped membership table: who, where, which incarnation,
/// and what the gossiper believes about it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberEntry {
    /// Stable node name (survives restarts; the quarantine key).
    pub name: String,
    /// `host:port` the member's server listens on (a restart may move it).
    pub endpoint: String,
    /// Bumped by the member itself on restart or to refute a suspicion;
    /// higher incarnation always wins a merge.
    pub incarnation: u64,
    pub state: MemberState,
}

/// A view summary piggybacked on gossip so liveness information never
/// travels without the highest-seq view that goes with it (that coupling
/// is what prevents a healed minority coordinator from installing a
/// rival view).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewSummary {
    pub seq: u64,
    /// Member names in view (coordinator-first) order.
    pub members: Vec<String>,
}

/// The gossip request family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipRequest {
    /// Push-pull membership exchange; doubles as the heartbeat the
    /// phi-accrual detector scores. `from` is the sender's own row.
    Sync {
        from: MemberEntry,
        entries: Vec<MemberEntry>,
        view: Option<ViewSummary>,
    },
    /// A group-communication frame ferried between members of `group`;
    /// `from` is the sender's group address, `wire` a serialized
    /// `groupcast::Wire`.
    Group {
        group: String,
        from: u64,
        wire: Vec<u8>,
    },
}

/// The reply to a [`GossipRequest`], same order of kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipReply {
    /// The pull half of the exchange: the responder's table and view.
    Sync {
        entries: Vec<MemberEntry>,
        view: Option<ViewSummary>,
    },
    /// A ferried frame was accepted for processing.
    Ack,
}

/// A [`NamingOp`] in wire form.
#[derive(Clone, Debug, PartialEq)]
pub struct WireOp {
    /// [`OpKind::label`] string.
    pub kind: String,
    /// Canonical composite-name string.
    pub name: String,
    pub payload: WirePayload,
    pub attrs: Option<Attributes>,
    /// Interceptor annotations ([`rndi_core::op::MetaBag`]). The trace
    /// context is not among them: it rides in the envelope.
    pub meta: BTreeMap<String, String>,
}

/// [`OpPayload`] in wire form. Listener registrations are process-local
/// and have no wire representation.
#[derive(Clone, Debug, PartialEq)]
pub enum WirePayload {
    None,
    Value(StoredValue),
    /// Raw marshalled bytes whose encoding this node does not recognise
    /// (foreign data that must be preserved byte-exactly).
    Wire {
        bytes: Vec<u8>,
        class_name: String,
    },
    /// An already-marshalled payload carried *decoded*: the wire form is
    /// the [`StoredValue`] itself, not its serialized bytes nested inside
    /// the outer frame. The receiver re-marshals with the shared op
    /// codec, so backends still see [`OpPayload::Wire`] bytes.
    Stored {
        value: StoredValue,
        class_name: String,
    },
    NewName(String),
    Mods(Vec<AttrMod>),
    Query {
        filter: String,
        scope: String,
        count_limit: u64,
        return_attrs: Option<Vec<String>>,
        return_values: bool,
    },
}

/// [`OpOutcome`] in wire form. `Subscribed` handles are process-local and
/// have no wire representation.
#[derive(Clone, Debug, PartialEq)]
pub enum WireOutcome {
    Done,
    Value(StoredValue),
    Wire(Vec<u8>),
    Names(Vec<WireNameClass>),
    Bindings(Vec<WireBinding>),
    Attrs(Attributes),
    Found(Vec<WireHit>),
}

#[derive(Clone, Debug, PartialEq)]
pub struct WireNameClass {
    pub name: String,
    pub class_name: String,
}

#[derive(Clone, Debug, PartialEq)]
pub struct WireBinding {
    pub name: String,
    pub value: StoredValue,
}

#[derive(Clone, Debug, PartialEq)]
pub struct WireHit {
    pub name: String,
    pub value: Option<StoredValue>,
    pub attrs: Attributes,
}

/// [`NamingError`] in wire form, one variant per source variant so every
/// error a remote backend can produce round-trips with full fidelity.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    NameNotFound {
        name: String,
    },
    AlreadyBound {
        name: String,
    },
    NotAContext {
        name: String,
    },
    ContextExpected {
        name: String,
    },
    InvalidName {
        name: String,
        reason: String,
    },
    InvalidSearchFilter {
        filter: String,
        reason: String,
    },
    NotSupported {
        operation: String,
    },
    NoPermission {
        detail: String,
    },
    ServiceFailure {
        detail: String,
    },
    Timeout {
        detail: String,
    },
    NoProvider {
        scheme: String,
    },
    ConfigurationError {
        detail: String,
    },
    ContextNotEmpty {
        name: String,
    },
    LeaseExpired {
        name: String,
    },
    Continue {
        resolved: StoredValue,
        remaining: String,
    },
    FederationDepthExceeded {
        depth: u64,
    },
    Overloaded {
        retry_after_ms: u64,
    },
}

// -------------------------------------------------------- conversions --

fn not_remotable(what: &str) -> NamingError {
    NamingError::unsupported(format!("{what} cannot cross a network transport"))
}

fn stored(v: &BoundValue) -> Result<StoredValue> {
    StoredValue::try_from_bound(v).ok_or_else(|| not_remotable("a live context value"))
}

fn scope_label(scope: SearchScope) -> &'static str {
    match scope {
        SearchScope::Object => "object",
        SearchScope::OneLevel => "onelevel",
        SearchScope::Subtree => "subtree",
    }
}

fn parse_scope(s: &str) -> Result<SearchScope> {
    match s {
        "object" => Ok(SearchScope::Object),
        "onelevel" => Ok(SearchScope::OneLevel),
        "subtree" => Ok(SearchScope::Subtree),
        other => Err(NamingError::service(format!(
            "unknown search scope {other:?}"
        ))),
    }
}

/// Encode a reified op for the wire. Fails — without touching the socket —
/// for op shapes that are inherently process-local (listeners, handles,
/// live context payloads). The op's trace context is not part of the wire
/// op; the caller puts it in the envelope.
pub fn encode_op(op: &NamingOp) -> Result<WireOp> {
    let payload = match &op.payload {
        OpPayload::None => WirePayload::None,
        OpPayload::Value(v) => WirePayload::Value(stored(v)?),
        OpPayload::Wire { bytes, class_name } => encode_wire_payload(bytes, class_name),
        OpPayload::NewName(n) => WirePayload::NewName(n.to_string()),
        OpPayload::Mods(mods) => WirePayload::Mods(mods.clone()),
        OpPayload::Query { filter, controls } => WirePayload::Query {
            filter: filter.to_string(),
            scope: scope_label(controls.scope).to_string(),
            count_limit: controls.count_limit as u64,
            return_attrs: controls.return_attrs.clone(),
            return_values: controls.return_values,
        },
        OpPayload::Listener(_) => return Err(not_remotable("an event listener")),
        OpPayload::Handle(_) => return Err(not_remotable("a listener handle")),
    };
    Ok(WireOp {
        kind: op.kind.label().to_string(),
        name: op.name.to_string(),
        payload,
        attrs: op.attrs.clone(),
        meta: op.meta.iter().map(|(k, v)| (k.into(), v.into())).collect(),
    })
}

/// Choose the single-encoded wire form for an already-marshalled payload.
/// Bytes that are a bare canonical [`StoredValue`] encoding cross decoded
/// (and are re-encoded on the far side — `encode ∘ decode` is the
/// identity for the shared codec's own output); foreign bytes must survive
/// byte-exactly, so they stay raw. JSON-tree values also stay raw: their
/// re-encoding need not be byte-identical.
fn encode_wire_payload(bytes: &[u8], class_name: &str) -> WirePayload {
    if let Some(value) = StoredValue::decode(bytes) {
        if !matches!(value, StoredValue::Json(_)) && value.encode() == bytes {
            return WirePayload::Stored {
                value,
                class_name: class_name.to_string(),
            };
        }
    }
    WirePayload::Wire {
        bytes: bytes.to_vec(),
        class_name: class_name.to_string(),
    }
}

fn parse_kind(label: &str) -> Result<OpKind> {
    ALL_OP_KINDS
        .iter()
        .copied()
        .find(|k| k.label() == label)
        .ok_or_else(|| NamingError::service(format!("unknown op kind {label:?}")))
}

/// Decode a wire op back into a reified [`NamingOp`] (server side).
pub fn decode_op(wire: &WireOp) -> Result<NamingOp> {
    let kind = parse_kind(&wire.kind)?;
    let name = CompositeName::parse(&wire.name)?;
    let payload = match &wire.payload {
        WirePayload::None => OpPayload::None,
        WirePayload::Value(s) => OpPayload::Value(s.clone().into_bound()),
        WirePayload::Wire { bytes, class_name } => OpPayload::Wire {
            bytes: bytes.clone(),
            class_name: class_name.clone(),
        },
        WirePayload::Stored { value, class_name } => OpPayload::Wire {
            bytes: value.encode(),
            class_name: class_name.clone(),
        },
        WirePayload::NewName(n) => OpPayload::NewName(CompositeName::parse(n)?),
        WirePayload::Mods(mods) => OpPayload::Mods(mods.clone()),
        WirePayload::Query {
            filter,
            scope,
            count_limit,
            return_attrs,
            return_values,
        } => OpPayload::Query {
            filter: Filter::parse(filter)?,
            controls: SearchControls {
                scope: parse_scope(scope)?,
                count_limit: *count_limit as usize,
                return_attrs: return_attrs.clone(),
                return_values: *return_values,
            },
        },
    };
    let mut op = NamingOp::lookup(name);
    op.kind = kind;
    op.payload = payload;
    op.attrs = wire.attrs.clone();
    for (k, v) in &wire.meta {
        op.meta.set(k.clone(), v.clone());
    }
    Ok(op)
}

/// Encode an outcome for the wire (server side).
pub fn encode_outcome(out: &OpOutcome) -> Result<WireOutcome> {
    Ok(match out {
        OpOutcome::Done => WireOutcome::Done,
        OpOutcome::Value(v) => WireOutcome::Value(stored(v)?),
        OpOutcome::Wire(b) => WireOutcome::Wire(b.clone()),
        OpOutcome::Names(names) => WireOutcome::Names(
            names
                .iter()
                .map(|n| WireNameClass {
                    name: n.name.clone(),
                    class_name: n.class_name.clone(),
                })
                .collect(),
        ),
        OpOutcome::Bindings(bindings) => WireOutcome::Bindings(
            bindings
                .iter()
                .map(|b| {
                    Ok(WireBinding {
                        name: b.name.clone(),
                        value: stored(&b.value)?,
                    })
                })
                .collect::<Result<_>>()?,
        ),
        OpOutcome::Attrs(a) => WireOutcome::Attrs(a.clone()),
        OpOutcome::Found(hits) => WireOutcome::Found(
            hits.iter()
                .map(|h| {
                    Ok(WireHit {
                        name: h.name.clone(),
                        value: h.value.as_ref().map(stored).transpose()?,
                        attrs: h.attrs.clone(),
                    })
                })
                .collect::<Result<_>>()?,
        ),
        OpOutcome::Subscribed(_) => return Err(not_remotable("a listener subscription")),
    })
}

/// Decode a wire outcome (client side).
pub fn decode_outcome(wire: &WireOutcome) -> Result<OpOutcome> {
    Ok(match wire {
        WireOutcome::Done => OpOutcome::Done,
        WireOutcome::Value(s) => OpOutcome::Value(s.clone().into_bound()),
        WireOutcome::Wire(b) => OpOutcome::Wire(b.clone()),
        WireOutcome::Names(names) => OpOutcome::Names(
            names
                .iter()
                .map(|n| NameClassPair {
                    name: n.name.clone(),
                    class_name: n.class_name.clone(),
                })
                .collect(),
        ),
        WireOutcome::Bindings(bindings) => OpOutcome::Bindings(
            bindings
                .iter()
                .map(|b| Binding {
                    name: b.name.clone(),
                    value: b.value.clone().into_bound(),
                })
                .collect(),
        ),
        WireOutcome::Attrs(a) => OpOutcome::Attrs(a.clone()),
        WireOutcome::Found(hits) => OpOutcome::Found(
            hits.iter()
                .map(|h| SearchItem {
                    name: h.name.clone(),
                    value: h.value.clone().map(StoredValue::into_bound),
                    attrs: h.attrs.clone(),
                })
                .collect(),
        ),
    })
}

/// Encode an error for the wire (server side). Every variant has a wire
/// form except it degrades `Continue` with a live-context boundary object
/// into a `ServiceFailure` (a context handle cannot cross the socket).
pub fn encode_error(e: &NamingError) -> WireError {
    match e {
        NamingError::NameNotFound { name } => WireError::NameNotFound { name: name.clone() },
        NamingError::AlreadyBound { name } => WireError::AlreadyBound { name: name.clone() },
        NamingError::NotAContext { name } => WireError::NotAContext { name: name.clone() },
        NamingError::ContextExpected { name } => WireError::ContextExpected { name: name.clone() },
        NamingError::InvalidName { name, reason } => WireError::InvalidName {
            name: name.clone(),
            reason: reason.clone(),
        },
        NamingError::InvalidSearchFilter { filter, reason } => WireError::InvalidSearchFilter {
            filter: filter.clone(),
            reason: reason.clone(),
        },
        NamingError::NotSupported { operation } => WireError::NotSupported {
            operation: operation.clone(),
        },
        NamingError::NoPermission { detail } => WireError::NoPermission {
            detail: detail.clone(),
        },
        NamingError::ServiceFailure { detail } => WireError::ServiceFailure {
            detail: detail.clone(),
        },
        NamingError::Timeout { detail } => WireError::Timeout {
            detail: detail.clone(),
        },
        NamingError::NoProvider { scheme } => WireError::NoProvider {
            scheme: scheme.clone(),
        },
        NamingError::ConfigurationError { detail } => WireError::ConfigurationError {
            detail: detail.clone(),
        },
        NamingError::ContextNotEmpty { name } => WireError::ContextNotEmpty { name: name.clone() },
        NamingError::LeaseExpired { name } => WireError::LeaseExpired { name: name.clone() },
        NamingError::Continue {
            resolved,
            remaining,
        } => match StoredValue::try_from_bound(resolved) {
            Some(resolved) => WireError::Continue {
                resolved,
                remaining: remaining.to_string(),
            },
            None => WireError::ServiceFailure {
                detail: "federation continuation with a live context cannot cross the wire"
                    .to_string(),
            },
        },
        NamingError::FederationDepthExceeded { depth } => WireError::FederationDepthExceeded {
            depth: *depth as u64,
        },
        NamingError::Overloaded { retry_after_ms } => WireError::Overloaded {
            retry_after_ms: *retry_after_ms,
        },
    }
}

/// Decode a wire error (client side).
pub fn decode_error(wire: &WireError) -> NamingError {
    match wire {
        WireError::NameNotFound { name } => NamingError::NameNotFound { name: name.clone() },
        WireError::AlreadyBound { name } => NamingError::AlreadyBound { name: name.clone() },
        WireError::NotAContext { name } => NamingError::NotAContext { name: name.clone() },
        WireError::ContextExpected { name } => NamingError::ContextExpected { name: name.clone() },
        WireError::InvalidName { name, reason } => NamingError::InvalidName {
            name: name.clone(),
            reason: reason.clone(),
        },
        WireError::InvalidSearchFilter { filter, reason } => NamingError::InvalidSearchFilter {
            filter: filter.clone(),
            reason: reason.clone(),
        },
        WireError::NotSupported { operation } => NamingError::NotSupported {
            operation: operation.clone(),
        },
        WireError::NoPermission { detail } => NamingError::NoPermission {
            detail: detail.clone(),
        },
        WireError::ServiceFailure { detail } => NamingError::ServiceFailure {
            detail: detail.clone(),
        },
        WireError::Timeout { detail } => NamingError::Timeout {
            detail: detail.clone(),
        },
        WireError::NoProvider { scheme } => NamingError::NoProvider {
            scheme: scheme.clone(),
        },
        WireError::ConfigurationError { detail } => NamingError::ConfigurationError {
            detail: detail.clone(),
        },
        WireError::ContextNotEmpty { name } => NamingError::ContextNotEmpty { name: name.clone() },
        WireError::LeaseExpired { name } => NamingError::LeaseExpired { name: name.clone() },
        WireError::Continue {
            resolved,
            remaining,
        } => NamingError::Continue {
            resolved: resolved.clone().into_bound(),
            remaining: CompositeName::parse(remaining).unwrap_or_else(|_| CompositeName::empty()),
        },
        WireError::FederationDepthExceeded { depth } => NamingError::FederationDepthExceeded {
            depth: *depth as usize,
        },
        WireError::Overloaded { retry_after_ms } => NamingError::Overloaded {
            retry_after_ms: *retry_after_ms,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rndi_core::attrs::Attribute;
    use rndi_core::value::Reference;

    /// One trip through the only bytes codec there is.
    fn via_bytes(body: EnvelopeBody) -> EnvelopeBody {
        let env = Envelope { req_id: 1, body };
        bin::decode_envelope(&bin::encode_envelope(&env).unwrap())
            .unwrap()
            .body
    }

    #[test]
    fn op_roundtrip_covers_payload_shapes() {
        let ops = vec![
            NamingOp::lookup("a/b".into()),
            NamingOp::bind("x".into(), BoundValue::str("v")),
            NamingOp::rename("a".into(), "b".into()),
            NamingOp::modify_attributes(
                "n".into(),
                vec![
                    AttrMod::Add(Attribute::single("cpu", "8")),
                    AttrMod::Remove("mem".into()),
                ],
            ),
            NamingOp::bind_with_attrs(
                "s".into(),
                BoundValue::Reference(Reference::url("hdns://h")),
                Attributes::new().with("kind", "service"),
            ),
            NamingOp::search(
                "base".into(),
                Filter::parse("(&(a=1)(b>=2))").unwrap(),
                SearchControls {
                    scope: SearchScope::Subtree,
                    count_limit: 5,
                    return_attrs: Some(vec!["a".into()]),
                    return_values: true,
                },
            ),
        ];
        for op in ops {
            let mut traced = op.clone();
            traced.meta.set("retry.attempt", "2");
            traced.set_trace_ctx(&rndi_obs::TraceCtx::root());
            let wire = encode_op(&traced).unwrap();
            // Interceptor annotations cross; the trace context is the
            // envelope's business, not the op's.
            assert_eq!(wire.meta.len(), 1);
            let EnvelopeBody::Call { op: parsed, .. } = via_bytes(EnvelopeBody::Call {
                op: Box::new(wire),
                deadline_ms: 0,
                trace: None,
            }) else {
                panic!("call decodes as a call");
            };
            let back = decode_op(&parsed).unwrap();
            assert_eq!(back.kind, op.kind);
            assert_eq!(back.name.to_string(), op.name.to_string());
            assert_eq!(back.meta.get("retry.attempt"), Some("2"));
            assert_eq!(back.trace_ctx(), None);
        }
    }

    #[test]
    fn local_only_ops_are_rejected_before_the_wire() {
        struct NopListener;
        impl rndi_core::event::NamingListener for NopListener {
            fn on_event(&self, _: &rndi_core::event::NamingEvent) {}
        }
        let err = encode_op(&NamingOp::add_listener(
            "a".into(),
            std::sync::Arc::new(NopListener),
        ))
        .unwrap_err();
        assert!(matches!(err, NamingError::NotSupported { .. }));
    }

    #[test]
    fn outcome_roundtrip() {
        let outs = vec![
            OpOutcome::Done,
            OpOutcome::Value(BoundValue::I64(9)),
            OpOutcome::Names(vec![NameClassPair {
                name: "a".into(),
                class_name: "string".into(),
            }]),
            OpOutcome::Bindings(vec![Binding {
                name: "b".into(),
                value: BoundValue::str("v"),
            }]),
            OpOutcome::Attrs(Attributes::new().with("k", "v")),
            OpOutcome::Found(vec![SearchItem {
                name: "hit".into(),
                value: Some(BoundValue::Bool(true)),
                attrs: Attributes::new(),
            }]),
        ];
        for out in outs {
            let EnvelopeBody::Ok(parsed) =
                via_bytes(EnvelopeBody::Ok(encode_outcome(&out).unwrap()))
            else {
                panic!("outcome decodes as an outcome");
            };
            let back = decode_outcome(&parsed).unwrap();
            assert_eq!(format!("{back:?}"), format!("{out:?}"));
        }
    }

    #[test]
    fn error_roundtrip_including_continue() {
        let errors = vec![
            NamingError::not_found("a"),
            NamingError::already_bound("b"),
            NamingError::Timeout {
                detail: "slow".into(),
            },
            NamingError::Continue {
                resolved: BoundValue::Reference(Reference::url("ldap://h/dc=x")),
                remaining: CompositeName::parse("rest/of/name").unwrap(),
            },
            NamingError::FederationDepthExceeded { depth: 9 },
        ];
        for e in errors {
            let EnvelopeBody::Err(parsed) = via_bytes(EnvelopeBody::Err(encode_error(&e))) else {
                panic!("error decodes as an error");
            };
            assert_eq!(decode_error(&parsed), e);
        }
    }
}
