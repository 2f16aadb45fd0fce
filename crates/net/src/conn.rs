//! Sans-IO connection state machines.
//!
//! Everything in this module operates on byte slices in and byte buffers
//! out — no sockets, no threads, no clocks — which is what makes the
//! protocol's trickiest behaviour (the preamble handshake, pipelined
//! request-ID bookkeeping, partial frames split at arbitrary byte
//! boundaries) unit-testable without IO. [`crate::shard`] and
//! [`crate::client`] feed whatever bytes arrived into
//! [`ServerConn::receive`] / [`ClientConn::receive`], and the socket side
//! writes out whatever the machine queued.
//!
//! Layering (fraktor-rs-style): `proto` knows *messages*, `conn` knows
//! *connections* (preamble state, frame reassembly, request IDs), and
//! only `server`/`client` know *sockets*.

use rndi_core::error::{NamingError, Result};
use rndi_obs::TraceCtx;

use crate::proto::{
    self, AdminReply, AdminRequest, Envelope, EnvelopeBody, WireError, WireOp, WireOutcome,
};

/// An incremental length-prefixed frame reassembler. Bytes go in at
/// whatever granularity the transport produced them; complete frames come
/// out. The [`proto::MAX_FRAME_LEN`] cap is enforced on the length prefix
/// *before* the payload is buffered, so a hostile prefix cannot balloon
/// memory.
// Public so that `tests/proto_fuzz.rs` can feed it hostile byte streams.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes before this offset have been consumed (compacted lazily).
    pos: usize,
}

impl FrameBuf {
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Buffer more bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by the largest
        // in-flight frame instead of the connection's lifetime traffic.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Peek at the unconsumed bytes without consuming them.
    pub fn peek(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Consume `n` unconsumed bytes (they have been processed elsewhere,
    /// e.g. the connection preamble).
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.pending());
        self.pos += n;
    }

    /// Extract the next complete frame, if one is fully buffered.
    /// An oversized length prefix is an error surfaced before any payload
    /// allocation.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let pending = self.peek();
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(pending[..4].try_into().unwrap()) as usize;
        if len > proto::MAX_FRAME_LEN {
            return Err(NamingError::service(format!(
                "frame length {len} exceeds cap"
            )));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let frame = pending[4..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(frame))
    }
}

/// One decoded client→server message, tagged with the request ID the
/// response must echo.
#[derive(Debug)]
pub struct Inbound {
    pub req_id: u64,
    pub msg: InboundMsg,
}

/// The body of an [`Inbound`] message.
#[derive(Debug)]
pub enum InboundMsg {
    Ping,
    Call {
        op: Box<WireOp>,
        deadline_ms: u64,
        /// The caller's trace context (the envelope's trace field).
        trace: Option<TraceCtx>,
    },
    /// A telemetry scrape.
    Admin(AdminRequest),
    /// A cluster membership payload, as opaque bytes.
    Gossip(Vec<u8>),
    /// The frame was self-delimiting but its payload did not decode; the
    /// server answers this error instead of dropping the connection.
    Malformed(NamingError),
}

/// What a server queues back for one request.
#[derive(Debug)]
pub enum ResponseBody {
    Pong,
    Ok(WireOutcome),
    Err(WireError),
    Admin(AdminReply),
    Gossip(Vec<u8>),
}

/// Server-side per-connection state machine: checks the connection
/// preamble, reassembles frames, decodes requests, and encodes responses
/// into an output buffer the IO layer drains.
pub struct ServerConn {
    /// Whether the client's preamble has been seen and acknowledged.
    greeted: bool,
    frames: FrameBuf,
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written to the socket.
    out_pos: usize,
}

impl Default for ServerConn {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerConn {
    pub fn new() -> Self {
        ServerConn {
            greeted: false,
            frames: FrameBuf::new(),
            outbuf: Vec::new(),
            out_pos: 0,
        }
    }

    /// Feed transport bytes in; get fully-decoded requests out. An `Err`
    /// means the connection is unrecoverable (it did not open with
    /// [`proto::PREAMBLE_V2`], or its framing is corrupt) and must be
    /// closed.
    pub fn receive(&mut self, bytes: &[u8]) -> Result<Vec<Inbound>> {
        self.frames.push(bytes);
        if !self.greeted {
            if self.frames.pending() < 4 {
                return Ok(Vec::new());
            }
            let first4 = &self.frames.peek()[..4];
            if first4 != proto::PREAMBLE_V2 {
                return Err(NamingError::service(format!(
                    "unsupported protocol version (connection opened with {first4:02x?})"
                )));
            }
            // Consume the preamble and acknowledge it so the client knows
            // the server speaks its protocol.
            self.frames.consume(4);
            self.outbuf.extend_from_slice(&proto::PREAMBLE_V2);
            self.greeted = true;
        }
        let mut inbound = Vec::new();
        while let Some(frame) = self.frames.next_frame()? {
            inbound.push(decode_request(&frame)?);
        }
        Ok(inbound)
    }

    /// Queue the response for `req_id`.
    pub fn push_response(&mut self, req_id: u64, body: ResponseBody) -> Result<()> {
        if !self.greeted {
            return Err(NamingError::service(
                "response queued before the connection preamble",
            ));
        }
        let payload = proto::bin::encode_envelope(&Envelope {
            req_id,
            body: match body {
                ResponseBody::Pong => EnvelopeBody::Pong,
                ResponseBody::Ok(out) => EnvelopeBody::Ok(out),
                ResponseBody::Err(err) => EnvelopeBody::Err(err),
                ResponseBody::Admin(reply) => EnvelopeBody::AdminOk(reply),
                ResponseBody::Gossip(reply) => EnvelopeBody::GossipOk(reply),
            },
        })?;
        self.outbuf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.outbuf.extend_from_slice(&payload);
        Ok(())
    }

    /// Bytes waiting to be written to the socket.
    pub fn pending_out(&self) -> &[u8] {
        &self.outbuf[self.out_pos..]
    }

    /// Record that `n` bytes of [`ServerConn::pending_out`] were written.
    pub fn consume_out(&mut self, n: usize) {
        self.out_pos += n;
        debug_assert!(self.out_pos <= self.outbuf.len());
        if self.out_pos == self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }
}

fn decode_request(frame: &[u8]) -> Result<Inbound> {
    match proto::bin::decode_envelope(frame) {
        Ok(Envelope { req_id, body }) => {
            let msg = match body {
                EnvelopeBody::Ping => InboundMsg::Ping,
                EnvelopeBody::Call {
                    op,
                    deadline_ms,
                    trace,
                } => InboundMsg::Call {
                    op,
                    deadline_ms,
                    trace,
                },
                EnvelopeBody::Admin(req) => InboundMsg::Admin(req),
                EnvelopeBody::Gossip(payload) => InboundMsg::Gossip(payload),
                // A client must not send response bodies.
                EnvelopeBody::Pong
                | EnvelopeBody::Ok(_)
                | EnvelopeBody::Err(_)
                | EnvelopeBody::AdminOk(_)
                | EnvelopeBody::GossipOk(_) => {
                    InboundMsg::Malformed(NamingError::service("response body in a client request"))
                }
            };
            Ok(Inbound { req_id, msg })
        }
        Err(e) => {
            // Frames are self-delimiting, so a bad payload does not
            // desync the stream. If the request ID survived, answer a
            // typed error; without one there is nothing to address the
            // response to, so the connection must close.
            if frame.len() >= 8 {
                let req_id = u64::from_le_bytes(frame[..8].try_into().unwrap());
                Ok(Inbound {
                    req_id,
                    msg: InboundMsg::Malformed(e),
                })
            } else {
                Err(e)
            }
        }
    }
}

/// Client-side sans-IO state for one connection: request-ID allocation,
/// the connect preamble, the server's ack of it, and response frame
/// reassembly. Who writes, who reads and who waits is [`crate::client`]'s
/// business.
#[derive(Default)]
pub struct ClientConn {
    next_id: u64,
    sent_preamble: bool,
    acked: bool,
    frames: FrameBuf,
}

impl ClientConn {
    pub fn new() -> Self {
        ClientConn::default()
    }

    /// Allocate the next request ID.
    pub fn next_req_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Encode one envelope as transport bytes: the 4-byte preamble (first
    /// send only) plus a length-prefixed frame.
    pub fn encode(&mut self, env: &Envelope) -> Result<Vec<u8>> {
        let payload = proto::bin::encode_envelope(env)?;
        if payload.len() > proto::MAX_FRAME_LEN {
            return Err(NamingError::service(format!(
                "frame of {} bytes exceeds cap",
                payload.len()
            )));
        }
        let preamble = if self.sent_preamble { 0 } else { 4 };
        let mut out = Vec::with_capacity(preamble + 4 + payload.len());
        if !self.sent_preamble {
            out.extend_from_slice(&proto::PREAMBLE_V2);
            self.sent_preamble = true;
        }
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Feed server bytes in; get decoded response envelopes out. The
    /// server's 4-byte preamble ack is consumed here; a missing or
    /// mismatched ack means the far side does not speak this protocol and
    /// the connection is unusable.
    pub fn receive(&mut self, bytes: &[u8]) -> Result<Vec<Envelope>> {
        self.frames.push(bytes);
        if !self.acked {
            if self.frames.pending() < 4 {
                return Ok(Vec::new());
            }
            let first4: [u8; 4] = self.frames.peek()[..4].try_into().unwrap();
            if first4 != proto::PREAMBLE_V2 {
                return Err(NamingError::service(
                    "server did not acknowledge the connection preamble",
                ));
            }
            self.frames.consume(4);
            self.acked = true;
        }
        let mut envelopes = Vec::new();
        while let Some(frame) = self.frames.next_frame()? {
            envelopes.push(proto::bin::decode_envelope(&frame)?);
        }
        Ok(envelopes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rndi_core::op::NamingOp;

    #[test]
    fn framebuf_reassembles_byte_by_byte() {
        let mut framed = Vec::new();
        for payload in [&b"hello"[..], b"world!"] {
            framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            framed.extend_from_slice(payload);
        }
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for b in &framed {
            fb.push(std::slice::from_ref(b));
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, vec![b"hello".to_vec(), b"world!".to_vec()]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn framebuf_rejects_oversized_prefix() {
        let mut fb = FrameBuf::new();
        fb.push(&(proto::MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn server_acks_the_preamble_and_answers() {
        let mut server = ServerConn::new();
        let mut client = ClientConn::new();
        let id = client.next_req_id();
        let bytes = client
            .encode(&Envelope {
                req_id: id,
                body: EnvelopeBody::Ping,
            })
            .unwrap();
        let inbound = server.receive(&bytes).unwrap();
        assert_eq!(inbound.len(), 1);
        assert!(matches!(inbound[0].msg, InboundMsg::Ping));
        server
            .push_response(inbound[0].req_id, ResponseBody::Pong)
            .unwrap();
        let responses = client.receive(server.pending_out()).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].req_id, id);
        assert!(matches!(responses[0].body, EnvelopeBody::Pong));
    }

    #[test]
    fn server_refuses_anything_but_the_preamble() {
        // Another version byte, and a bare length-prefixed frame (what the
        // retired JSON protocol opened with): both are refused on the
        // first four bytes, with nothing acknowledged.
        for first4 in [[b'R', b'N', b'I', 9], [0, 0, 0, 42]] {
            let mut server = ServerConn::new();
            assert!(server.receive(&first4[..3]).unwrap().is_empty());
            let err = server.receive(&first4[3..]).unwrap_err();
            assert!(err.to_string().contains("unsupported protocol version"));
            assert!(server.pending_out().is_empty());
            assert!(server.push_response(0, ResponseBody::Pong).is_err());
        }
    }

    #[test]
    fn malformed_payload_answers_typed_error() {
        let mut server = ServerConn::new();
        let mut bytes = proto::PREAMBLE_V2.to_vec();
        // A frame with a valid req id but garbage body tag.
        let mut payload = 77u64.to_le_bytes().to_vec();
        payload.push(250);
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&payload);
        let inbound = server.receive(&bytes).unwrap();
        assert_eq!(inbound[0].req_id, 77);
        assert!(matches!(inbound[0].msg, InboundMsg::Malformed(_)));
    }

    #[test]
    fn pipelined_requests_decode_in_one_receive() {
        let mut server = ServerConn::new();
        let mut client = ClientConn::new();
        let mut bytes = Vec::new();
        let mut ids = Vec::new();
        for name in ["a", "b", "c"] {
            let id = client.next_req_id();
            ids.push(id);
            let op = proto::encode_op(&NamingOp::lookup(name.into())).unwrap();
            bytes.extend_from_slice(
                &client
                    .encode(&Envelope {
                        req_id: id,
                        body: EnvelopeBody::Call {
                            op: Box::new(op),
                            deadline_ms: 0,
                            trace: None,
                        },
                    })
                    .unwrap(),
            );
        }
        let inbound = server.receive(&bytes).unwrap();
        assert_eq!(
            inbound.iter().map(|i| i.req_id).collect::<Vec<_>>(),
            ids,
            "all three pipelined calls decoded from one receive"
        );
        // Answer out of order; the client matches by ID, not order.
        for i in inbound.iter().rev() {
            server
                .push_response(
                    i.req_id,
                    ResponseBody::Err(proto::encode_error(&NamingError::not_found("x"))),
                )
                .unwrap();
        }
        let responses = client.receive(server.pending_out()).unwrap();
        let got: Vec<u64> = responses.iter().map(|r| r.req_id).collect();
        let mut want = ids.clone();
        want.reverse();
        assert_eq!(got, want);
    }

    #[test]
    fn client_rejects_a_server_that_does_not_ack() {
        let mut client = ClientConn::new();
        // A frame length prefix where the preamble ack should be.
        let err = client.receive(&[0, 0, 0, 42]).unwrap_err();
        assert!(err.to_string().contains("did not acknowledge"));
    }
}
