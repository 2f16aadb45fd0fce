//! The binary envelope codec.
//!
//! One [`Envelope`] per frame: a request ID, a body tag,
//! and a body whose hot-path shapes (lookup, bind/rebind, their
//! outcomes) are encoded natively — fixed-width little-endian integers
//! and length-prefixed strings/bytes — instead of through `serde_json`.
//! Cold, deeply structured values (attribute sets, modification lists,
//! JSON trees, references) fall back to their canonical JSON bytes inside
//! a length-prefixed field, so the codec stays small while the hot path
//! pays no text marshalling at all.
//!
//! Decoding is defensive by construction: every length field is
//! bounds-checked against the *remaining input* before any allocation,
//! unknown tags are typed errors, and trailing bytes after a complete
//! envelope are rejected. The proptests in `tests/proto_fuzz.rs` pin the
//! no-panic guarantee on arbitrary and truncated input.

use rndi_core::attrs::{AttrMod, Attributes};
use rndi_core::error::{NamingError, Result};
use rndi_core::op::ALL_OP_KINDS;
use rndi_core::value::{Reference, StoredValue};
use rndi_obs::TraceCtx;

use super::{
    AdminReply, AdminRequest, Envelope, EnvelopeBody, WireBinding, WireError, WireHit,
    WireNameClass, WireOp, WireOutcome, WirePayload,
};

// -------------------------------------------------------------- writer --

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_json<T: serde::Serialize>(out: &mut Vec<u8>, v: &T) -> Result<()> {
    let bytes =
        serde_json::to_vec(v).map_err(|e| NamingError::service(format!("encode failed: {e}")))?;
    put_bytes(out, &bytes);
    Ok(())
}

fn put_stored(out: &mut Vec<u8>, v: &StoredValue) -> Result<()> {
    match v {
        StoredValue::Null => out.push(0),
        StoredValue::Str(s) => {
            out.push(1);
            put_str(out, s);
        }
        StoredValue::I64(i) => {
            out.push(2);
            put_u64(out, *i as u64);
        }
        StoredValue::F64(f) => {
            out.push(3);
            put_u64(out, f.to_bits());
        }
        StoredValue::Bool(b) => {
            out.push(4);
            out.push(*b as u8);
        }
        StoredValue::Bytes(b) => {
            out.push(5);
            put_bytes(out, b);
        }
        StoredValue::Json(j) => {
            out.push(6);
            put_json(out, j)?;
        }
        StoredValue::Reference(r) => {
            out.push(7);
            put_json(out, r)?;
        }
    }
    Ok(())
}

fn put_trace(out: &mut Vec<u8>, ctx: &TraceCtx) {
    put_u64(out, ctx.trace_id);
    put_u64(out, ctx.span_id);
    put_u64(out, ctx.parent_span);
    put_u32(out, ctx.depth);
}

fn put_op(out: &mut Vec<u8>, op: &WireOp) -> Result<()> {
    let kind = ALL_OP_KINDS
        .iter()
        .position(|k| k.label() == op.kind)
        .ok_or_else(|| NamingError::service(format!("unknown op kind {:?}", op.kind)))?;
    out.push(kind as u8);
    put_str(out, &op.name);
    match &op.attrs {
        None => out.push(0),
        Some(attrs) => {
            out.push(1);
            put_json(out, attrs)?;
        }
    }
    match &op.payload {
        WirePayload::None => out.push(0),
        WirePayload::Value(v) => {
            out.push(1);
            put_stored(out, v)?;
        }
        WirePayload::Wire { bytes, class_name } => {
            out.push(2);
            put_bytes(out, bytes);
            put_str(out, class_name);
        }
        WirePayload::NewName(n) => {
            out.push(4);
            put_str(out, n);
        }
        WirePayload::Mods(mods) => {
            out.push(5);
            put_json(out, mods)?;
        }
        WirePayload::Query {
            filter,
            scope,
            count_limit,
            return_attrs,
            return_values,
        } => {
            out.push(6);
            put_str(out, filter);
            put_str(out, scope);
            put_u64(out, *count_limit);
            match return_attrs {
                None => out.push(0),
                Some(attrs) => {
                    out.push(1);
                    put_u32(out, attrs.len() as u32);
                    for a in attrs {
                        put_str(out, a);
                    }
                }
            }
            out.push(*return_values as u8);
        }
    }
    Ok(())
}

fn put_outcome(out: &mut Vec<u8>, outcome: &WireOutcome) -> Result<()> {
    match outcome {
        WireOutcome::Done => out.push(0),
        WireOutcome::Value(v) => {
            out.push(1);
            put_stored(out, v)?;
        }
        WireOutcome::Wire(b) => {
            out.push(2);
            put_bytes(out, b);
        }
        WireOutcome::Names(names) => {
            out.push(3);
            put_u32(out, names.len() as u32);
            for n in names {
                put_str(out, &n.name);
                put_str(out, &n.class_name);
            }
        }
        WireOutcome::Bindings(bindings) => {
            out.push(4);
            put_u32(out, bindings.len() as u32);
            for b in bindings {
                put_str(out, &b.name);
                put_stored(out, &b.value)?;
            }
        }
        WireOutcome::Attrs(attrs) => {
            out.push(5);
            put_json(out, attrs)?;
        }
        WireOutcome::Found(hits) => {
            out.push(6);
            put_u32(out, hits.len() as u32);
            for h in hits {
                put_str(out, &h.name);
                match &h.value {
                    None => out.push(0),
                    Some(v) => {
                        out.push(1);
                        put_stored(out, v)?;
                    }
                }
                put_json(out, &h.attrs)?;
            }
        }
    }
    Ok(())
}

fn put_error(out: &mut Vec<u8>, err: &WireError) -> Result<()> {
    match err {
        WireError::NameNotFound { name } => {
            out.push(0);
            put_str(out, name);
        }
        WireError::AlreadyBound { name } => {
            out.push(1);
            put_str(out, name);
        }
        WireError::NotAContext { name } => {
            out.push(2);
            put_str(out, name);
        }
        WireError::ContextExpected { name } => {
            out.push(3);
            put_str(out, name);
        }
        WireError::InvalidName { name, reason } => {
            out.push(4);
            put_str(out, name);
            put_str(out, reason);
        }
        WireError::InvalidSearchFilter { filter, reason } => {
            out.push(5);
            put_str(out, filter);
            put_str(out, reason);
        }
        WireError::NotSupported { operation } => {
            out.push(6);
            put_str(out, operation);
        }
        WireError::NoPermission { detail } => {
            out.push(7);
            put_str(out, detail);
        }
        WireError::ServiceFailure { detail } => {
            out.push(8);
            put_str(out, detail);
        }
        WireError::Timeout { detail } => {
            out.push(9);
            put_str(out, detail);
        }
        WireError::NoProvider { scheme } => {
            out.push(10);
            put_str(out, scheme);
        }
        WireError::ConfigurationError { detail } => {
            out.push(11);
            put_str(out, detail);
        }
        WireError::ContextNotEmpty { name } => {
            out.push(12);
            put_str(out, name);
        }
        WireError::LeaseExpired { name } => {
            out.push(13);
            put_str(out, name);
        }
        WireError::Continue {
            resolved,
            remaining,
        } => {
            out.push(14);
            put_stored(out, resolved)?;
            put_str(out, remaining);
        }
        WireError::FederationDepthExceeded { depth } => {
            out.push(15);
            put_u64(out, *depth);
        }
        WireError::Overloaded { retry_after_ms } => {
            out.push(16);
            put_u64(out, *retry_after_ms);
        }
    }
    Ok(())
}

/// Encode one envelope to frame-payload bytes.
pub fn encode_envelope(env: &Envelope) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    put_u64(&mut out, env.req_id);
    match &env.body {
        EnvelopeBody::Ping => out.push(0),
        EnvelopeBody::Pong => out.push(1),
        EnvelopeBody::Call {
            op,
            deadline_ms,
            trace,
        } => {
            out.push(2);
            put_u64(&mut out, *deadline_ms);
            match trace {
                None => out.push(0),
                Some(ctx) => {
                    out.push(1);
                    put_trace(&mut out, ctx);
                }
            }
            put_op(&mut out, op)?;
        }
        EnvelopeBody::Ok(outcome) => {
            out.push(3);
            put_outcome(&mut out, outcome)?;
        }
        EnvelopeBody::Err(err) => {
            out.push(4);
            put_error(&mut out, err)?;
        }
        EnvelopeBody::Admin(req) => {
            out.push(5);
            match req {
                AdminRequest::Metrics => out.push(0),
                AdminRequest::TraceDump { trace_id, slowest } => {
                    out.push(1);
                    put_u64(&mut out, *trace_id);
                    put_u32(&mut out, *slowest);
                }
                AdminRequest::Health => out.push(2),
            }
        }
        EnvelopeBody::AdminOk(reply) => {
            out.push(6);
            // Admin payloads are cold-path telemetry structures; they
            // cross as canonical JSON inside a length-prefixed field, same
            // as attribute sets on the data path.
            match reply {
                AdminReply::Metrics(snapshot) => {
                    out.push(0);
                    put_json(&mut out, snapshot)?;
                }
                AdminReply::TraceDump(spans) => {
                    out.push(1);
                    put_json(&mut out, spans)?;
                }
                AdminReply::Health(health) => {
                    out.push(2);
                    put_json(&mut out, health)?;
                }
            }
        }
        EnvelopeBody::Gossip(payload) => {
            out.push(7);
            put_bytes(&mut out, payload);
        }
        EnvelopeBody::GossipOk(payload) => {
            out.push(8);
            put_bytes(&mut out, payload);
        }
    }
    Ok(out)
}

// -------------------------------------------------------------- reader --

/// A bounds-checked reader over a frame payload. Every `take_*` verifies
/// the requested length against the remaining input *before* touching it,
/// so truncated or hostile length fields fail without allocation.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated(what: &str) -> NamingError {
    NamingError::service(format!("malformed envelope: truncated {what}"))
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(truncated(what));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn bytes(&mut self, what: &str) -> Result<&'a [u8]> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    fn str(&mut self, what: &str) -> Result<String> {
        let bytes = self.bytes(what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| NamingError::service(format!("malformed envelope: non-UTF-8 {what}")))
    }

    fn json<T: serde::de::DeserializeOwned>(&mut self, what: &str) -> Result<T> {
        let bytes = self.bytes(what)?;
        serde_json::from_slice(bytes)
            .map_err(|e| NamingError::service(format!("malformed envelope: bad {what}: {e}")))
    }

    fn stored(&mut self) -> Result<StoredValue> {
        Ok(match self.u8("value tag")? {
            0 => StoredValue::Null,
            1 => StoredValue::Str(self.str("string value")?),
            2 => StoredValue::I64(self.u64("integer value")? as i64),
            3 => StoredValue::F64(f64::from_bits(self.u64("float value")?)),
            4 => StoredValue::Bool(self.u8("bool value")? != 0),
            5 => StoredValue::Bytes(self.bytes("bytes value")?.to_vec()),
            6 => StoredValue::Json(self.json::<serde_json::Value>("json value")?),
            7 => StoredValue::Reference(self.json::<Reference>("reference value")?),
            other => {
                return Err(NamingError::service(format!(
                    "malformed envelope: unknown value tag {other}"
                )))
            }
        })
    }

    fn opt_stored(&mut self, what: &str) -> Result<Option<StoredValue>> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.stored()?)),
            other => Err(NamingError::service(format!(
                "malformed envelope: bad option tag {other} for {what}"
            ))),
        }
    }

    fn trace(&mut self) -> Result<TraceCtx> {
        Ok(TraceCtx {
            trace_id: self.u64("trace id")?,
            span_id: self.u64("span id")?,
            parent_span: self.u64("parent span")?,
            depth: self.u32("trace depth")?,
        })
    }

    fn op(&mut self) -> Result<WireOp> {
        let kind_idx = self.u8("op kind")? as usize;
        let kind = ALL_OP_KINDS
            .get(kind_idx)
            .ok_or_else(|| {
                NamingError::service(format!("malformed envelope: unknown op kind {kind_idx}"))
            })?
            .label()
            .to_string();
        let name = self.str("op name")?;
        let attrs = match self.u8("attrs flag")? {
            0 => None,
            1 => Some(self.json::<Attributes>("attrs")?),
            other => {
                return Err(NamingError::service(format!(
                    "malformed envelope: bad attrs flag {other}"
                )))
            }
        };
        let payload = match self.u8("payload tag")? {
            0 => WirePayload::None,
            1 => WirePayload::Value(self.stored()?),
            2 => WirePayload::Wire {
                bytes: self.bytes("wire payload")?.to_vec(),
                class_name: self.str("wire class")?,
            },
            // 3, a marshalled payload carried decoded, is retired.
            4 => WirePayload::NewName(self.str("new name")?),
            5 => WirePayload::Mods(self.json::<Vec<AttrMod>>("attr mods")?),
            6 => {
                let filter = self.str("filter")?;
                let scope = self.str("scope")?;
                let count_limit = self.u64("count limit")?;
                let return_attrs = match self.u8("return-attrs flag")? {
                    0 => None,
                    1 => {
                        let n = self.u32("return-attrs count")? as usize;
                        let mut attrs = Vec::new();
                        for _ in 0..n {
                            attrs.push(self.str("return attr")?);
                        }
                        Some(attrs)
                    }
                    other => {
                        return Err(NamingError::service(format!(
                            "malformed envelope: bad return-attrs flag {other}"
                        )))
                    }
                };
                let return_values = self.u8("return-values flag")? != 0;
                WirePayload::Query {
                    filter,
                    scope,
                    count_limit,
                    return_attrs,
                    return_values,
                }
            }
            other => {
                return Err(NamingError::service(format!(
                    "malformed envelope: unknown payload tag {other}"
                )))
            }
        };
        Ok(WireOp {
            kind,
            name,
            payload,
            attrs,
        })
    }

    fn outcome(&mut self) -> Result<WireOutcome> {
        Ok(match self.u8("outcome tag")? {
            0 => WireOutcome::Done,
            1 => WireOutcome::Value(self.stored()?),
            2 => WireOutcome::Wire(self.bytes("wire outcome")?.to_vec()),
            3 => {
                let n = self.u32("name count")? as usize;
                let mut names = Vec::new();
                for _ in 0..n {
                    names.push(WireNameClass {
                        name: self.str("entry name")?,
                        class_name: self.str("entry class")?,
                    });
                }
                WireOutcome::Names(names)
            }
            4 => {
                let n = self.u32("binding count")? as usize;
                let mut bindings = Vec::new();
                for _ in 0..n {
                    bindings.push(WireBinding {
                        name: self.str("binding name")?,
                        value: self.stored()?,
                    });
                }
                WireOutcome::Bindings(bindings)
            }
            5 => WireOutcome::Attrs(self.json::<Attributes>("attrs outcome")?),
            6 => {
                let n = self.u32("hit count")? as usize;
                let mut hits = Vec::new();
                for _ in 0..n {
                    hits.push(WireHit {
                        name: self.str("hit name")?,
                        value: self.opt_stored("hit value")?,
                        attrs: self.json::<Attributes>("hit attrs")?,
                    });
                }
                WireOutcome::Found(hits)
            }
            other => {
                return Err(NamingError::service(format!(
                    "malformed envelope: unknown outcome tag {other}"
                )))
            }
        })
    }

    fn error(&mut self) -> Result<WireError> {
        Ok(match self.u8("error tag")? {
            0 => WireError::NameNotFound {
                name: self.str("error name")?,
            },
            1 => WireError::AlreadyBound {
                name: self.str("error name")?,
            },
            2 => WireError::NotAContext {
                name: self.str("error name")?,
            },
            3 => WireError::ContextExpected {
                name: self.str("error name")?,
            },
            4 => WireError::InvalidName {
                name: self.str("error name")?,
                reason: self.str("error reason")?,
            },
            5 => WireError::InvalidSearchFilter {
                filter: self.str("error filter")?,
                reason: self.str("error reason")?,
            },
            6 => WireError::NotSupported {
                operation: self.str("error operation")?,
            },
            7 => WireError::NoPermission {
                detail: self.str("error detail")?,
            },
            8 => WireError::ServiceFailure {
                detail: self.str("error detail")?,
            },
            9 => WireError::Timeout {
                detail: self.str("error detail")?,
            },
            10 => WireError::NoProvider {
                scheme: self.str("error scheme")?,
            },
            11 => WireError::ConfigurationError {
                detail: self.str("error detail")?,
            },
            12 => WireError::ContextNotEmpty {
                name: self.str("error name")?,
            },
            13 => WireError::LeaseExpired {
                name: self.str("error name")?,
            },
            14 => WireError::Continue {
                resolved: self.stored()?,
                remaining: self.str("error remaining")?,
            },
            15 => WireError::FederationDepthExceeded {
                depth: self.u64("error depth")?,
            },
            16 => WireError::Overloaded {
                retry_after_ms: self.u64("error retry-after")?,
            },
            other => {
                return Err(NamingError::service(format!(
                    "malformed envelope: unknown error tag {other}"
                )))
            }
        })
    }
}

/// Decode one envelope from frame-payload bytes. Trailing bytes after a
/// complete envelope are rejected (they would mean the framing layer and
/// the codec disagree about message boundaries).
pub fn decode_envelope(payload: &[u8]) -> Result<Envelope> {
    let mut r = Reader::new(payload);
    let req_id = r.u64("request id")?;
    let body = match r.u8("body tag")? {
        0 => EnvelopeBody::Ping,
        1 => EnvelopeBody::Pong,
        2 => {
            let deadline_ms = r.u64("deadline")?;
            let trace = match r.u8("trace flag")? {
                0 => None,
                1 => Some(r.trace()?),
                other => {
                    return Err(NamingError::service(format!(
                        "malformed envelope: bad trace flag {other}"
                    )))
                }
            };
            let op = Box::new(r.op()?);
            EnvelopeBody::Call {
                op,
                deadline_ms,
                trace,
            }
        }
        3 => EnvelopeBody::Ok(r.outcome()?),
        4 => EnvelopeBody::Err(r.error()?),
        5 => EnvelopeBody::Admin(match r.u8("admin kind")? {
            0 => AdminRequest::Metrics,
            1 => AdminRequest::TraceDump {
                trace_id: r.u64("trace-dump id")?,
                slowest: r.u32("trace-dump slowest")?,
            },
            2 => AdminRequest::Health,
            other => {
                return Err(NamingError::service(format!(
                    "malformed envelope: unknown admin kind {other}"
                )))
            }
        }),
        6 => EnvelopeBody::AdminOk(match r.u8("admin reply kind")? {
            0 => AdminReply::Metrics(r.json::<rndi_obs::MetricsSnapshot>("metrics snapshot")?),
            1 => AdminReply::TraceDump(r.json::<Vec<rndi_obs::SpanRecord>>("trace dump")?),
            2 => AdminReply::Health(r.json::<rndi_obs::HealthSummary>("health summary")?),
            other => {
                return Err(NamingError::service(format!(
                    "malformed envelope: unknown admin reply kind {other}"
                )))
            }
        }),
        7 => EnvelopeBody::Gossip(r.bytes("gossip payload")?.to_vec()),
        8 => EnvelopeBody::GossipOk(r.bytes("gossip reply")?.to_vec()),
        other => {
            return Err(NamingError::service(format!(
                "malformed envelope: unknown body tag {other}"
            )))
        }
    };
    if r.remaining() != 0 {
        return Err(NamingError::service(format!(
            "malformed envelope: {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(Envelope { req_id, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;
    use rndi_core::op::NamingOp;
    use rndi_core::value::BoundValue;

    fn roundtrip(env: &Envelope) -> Envelope {
        let bytes = encode_envelope(env).expect("encodes");
        decode_envelope(&bytes).expect("decodes")
    }

    #[test]
    fn ping_pong_roundtrip() {
        for body in [EnvelopeBody::Ping, EnvelopeBody::Pong] {
            let env = Envelope { req_id: 7, body };
            assert_eq!(roundtrip(&env), env);
        }
    }

    #[test]
    fn call_roundtrip_with_trace() {
        let op = NamingOp::rebind("a/b".into(), BoundValue::str("v"));
        let env = Envelope {
            req_id: 42,
            body: EnvelopeBody::Call {
                op: Box::new(proto::encode_op(&op).unwrap()),
                deadline_ms: 250,
                trace: Some(TraceCtx {
                    trace_id: 9,
                    span_id: 8,
                    parent_span: 7,
                    depth: 3,
                }),
            },
        };
        assert_eq!(roundtrip(&env), env);
    }

    #[test]
    fn admin_envelopes_roundtrip() {
        let snapshot = {
            let r = rndi_obs::Registry::new();
            r.counter("rndi_net_requests_total", &[("op", "lookup")])
                .add(5);
            r.histogram("rndi_net_request_duration_ns", &[("op", "lookup")])
                .record(1500);
            r.snapshot()
        };
        let span = rndi_obs::SpanRecord::new(
            &TraceCtx {
                trace_id: 11,
                span_id: 12,
                parent_span: 0,
                depth: 0,
            },
            "server",
            "net:hdns",
            "lookup",
            rndi_obs::SpanOutcome::Ok,
            std::time::Duration::from_micros(42),
        );
        let health = rndi_obs::HealthSummary {
            instance: "net:hdns".into(),
            uptime_ms: 1234,
            active_conns: 3,
            max_conns: 1024,
            requests_ok: 99,
            trace_spans: 7,
            trace_dropped: 1,
            ..Default::default()
        };
        let bodies = vec![
            EnvelopeBody::Admin(AdminRequest::Metrics),
            EnvelopeBody::Admin(AdminRequest::TraceDump {
                trace_id: 11,
                slowest: 0,
            }),
            EnvelopeBody::Admin(AdminRequest::TraceDump {
                trace_id: 0,
                slowest: 4,
            }),
            EnvelopeBody::Admin(AdminRequest::Health),
            EnvelopeBody::AdminOk(AdminReply::Metrics(snapshot)),
            EnvelopeBody::AdminOk(AdminReply::TraceDump(vec![span])),
            EnvelopeBody::AdminOk(AdminReply::Health(health)),
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let env = Envelope {
                req_id: 100 + i as u64,
                body,
            };
            assert_eq!(roundtrip(&env), env);
        }
    }

    #[test]
    fn gossip_envelopes_carry_opaque_bytes() {
        // What a membership plane sends is its own business: any bytes,
        // none at all included, cross unchanged.
        let bodies = vec![
            EnvelopeBody::Gossip(vec![1, 0, 255, 7]),
            EnvelopeBody::Gossip(Vec::new()),
            EnvelopeBody::GossipOk(vec![1, 1]),
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let env = Envelope {
                req_id: 500 + i as u64,
                body,
            };
            assert_eq!(roundtrip(&env), env);
        }
    }

    #[test]
    fn unknown_admin_kinds_error_cleanly() {
        for (body_tag, kind) in [(5u8, 9u8), (6, 9)] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&1u64.to_le_bytes());
            bytes.push(body_tag);
            bytes.push(kind);
            let err = decode_envelope(&bytes).unwrap_err();
            assert!(
                format!("{err}").contains("unknown admin"),
                "tag {body_tag}/{kind}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let env = Envelope {
            req_id: 3,
            body: EnvelopeBody::Pong,
        };
        let mut bytes = encode_envelope(&env).unwrap();
        bytes.push(0);
        assert!(decode_envelope(&bytes).is_err());
    }

    #[test]
    fn truncation_never_allocates_from_hostile_lengths() {
        // A string length promising 4 GiB with 2 bytes of input must fail
        // on the bounds check, not try to allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u64.to_le_bytes()); // req id
        bytes.push(4); // Err body
        bytes.push(8); // ServiceFailure
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // huge string len
        bytes.extend_from_slice(b"xy");
        assert!(decode_envelope(&bytes).is_err());
    }
}
