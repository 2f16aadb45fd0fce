//! A stateful fuzzer for the server's sans-IO connection machine: random
//! sequences of well-formed request envelopes, mixed with a payload that
//! does not decode or a length prefix over the cap, split at random byte
//! boundaries and fed to one `ServerConn`.
//!
//! Whatever the chunking, nothing panics and the same requests are
//! decoded; a bad payload whose request ID can be read is answered
//! `Malformed` and the stream goes on; a frame with no readable ID, or an
//! oversized prefix, closes the connection and nothing after it is decoded
//! (nor, from the read that closes it, anything before it); and the
//! reassembler never buffers more than one frame's worth plus one read
//! chunk.

use proptest::prelude::*;

use rndi_core::op::OpKind;
use rndi_net::conn::{FrameBuf, InboundMsg, ServerConn};
use rndi_net::proto::{self, Envelope, EnvelopeBody};

/// One unit of the byte stream a client might send.
#[derive(Clone, Debug)]
enum Piece {
    Ping(u64),
    Lookup(u64, String),
    /// A frame whose request ID reads but whose body does not decode.
    BadBody(u64),
    /// A frame too short to hold a request ID: the connection must close.
    Headless,
    /// A length prefix over `MAX_FRAME_LEN`: the connection must close.
    Oversized,
}

/// What the server should make of a piece.
#[derive(Clone, Debug, PartialEq)]
enum Seen {
    Ping(u64),
    Lookup(u64, String),
    Malformed(u64),
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    prop_oneof![
        4 => any::<u64>().prop_map(Piece::Ping),
        4 => (any::<u64>(), "[a-z]{1,8}").prop_map(|(id, name)| Piece::Lookup(id, name)),
        2 => any::<u64>().prop_map(Piece::BadBody),
        1 => Just(Piece::Headless),
        1 => Just(Piece::Oversized),
    ]
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

fn envelope(req_id: u64, body: EnvelopeBody) -> Vec<u8> {
    framed(&proto::bin::encode_envelope(&Envelope { req_id, body }).expect("encodes"))
}

impl Piece {
    fn bytes(&self) -> Vec<u8> {
        match self {
            Piece::Ping(id) => envelope(*id, EnvelopeBody::Ping),
            Piece::Lookup(id, name) => {
                let op = proto::WireOp {
                    kind: OpKind::Lookup.label().to_string(),
                    name: name.clone(),
                    payload: proto::WirePayload::None,
                    attrs: None,
                    meta: Default::default(),
                };
                let body = EnvelopeBody::Call {
                    op: Box::new(op),
                    deadline_ms: 0,
                    trace: None,
                };
                envelope(*id, body)
            }
            // 0xEE is no body tag.
            Piece::BadBody(id) => framed(&[&id.to_le_bytes()[..], &[0xEE, 1, 2, 3]].concat()),
            Piece::Headless => framed(&[1, 2, 3]),
            Piece::Oversized => (proto::MAX_FRAME_LEN as u32 + 1).to_be_bytes().to_vec(),
        }
    }

    /// `None` for a piece that must close the connection.
    fn seen(&self) -> Option<Seen> {
        match self {
            Piece::Ping(id) => Some(Seen::Ping(*id)),
            Piece::Lookup(id, name) => Some(Seen::Lookup(*id, name.clone())),
            Piece::BadBody(id) => Some(Seen::Malformed(*id)),
            Piece::Headless | Piece::Oversized => None,
        }
    }
}

/// Feed `stream` to a fresh `ServerConn` in pieces ending at `cuts`:
/// what it decoded, and whether it closed the connection.
fn feed(stream: &[u8], cuts: &[usize]) -> (Vec<Seen>, bool) {
    let mut conn = ServerConn::new();
    let mut seen = Vec::new();
    let mut start = 0;
    for &end in cuts.iter().chain([&stream.len()]) {
        let end = end.clamp(start, stream.len());
        match conn.receive(&stream[start..end]) {
            Ok(inbound) => seen.extend(inbound.into_iter().map(|i| match i.msg {
                InboundMsg::Ping => Seen::Ping(i.req_id),
                InboundMsg::Call { op, .. } => Seen::Lookup(i.req_id, op.name),
                InboundMsg::Malformed(_) => Seen::Malformed(i.req_id),
                other => panic!("decoded a request nobody sent: {other:?}"),
            })),
            Err(_) => return (seen, true),
        }
        start = end;
    }
    (seen, false)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn a_server_conn_decodes_the_same_requests_under_every_chunking(
        pieces in proptest::collection::vec(arb_piece(), 1..12),
        cuts in proptest::collection::vec(0usize..2_048, 0..24),
    ) {
        let mut cuts = cuts;
        let stream: Vec<u8> = [proto::PREAMBLE_V2.to_vec()]
            .into_iter()
            .chain(pieces.iter().map(Piece::bytes))
            .collect::<Vec<_>>()
            .concat();
        cuts.sort_unstable();

        // The model: every request up to the first fatal piece, which
        // closes the connection.
        let fatal = pieces.iter().position(|p| p.seen().is_none());
        let model: Vec<Seen> = pieces.iter().map_while(Piece::seen).collect();

        let every_byte: Vec<usize> = (1..stream.len()).collect();
        for chunking in [&[][..], &cuts, &every_byte] {
            let (decoded, closed) = feed(&stream, chunking);
            prop_assert_eq!(closed, fatal.is_some());
            if fatal.is_some() {
                // The receive that ends in the close drops, with the
                // connection, what it decoded before the bad frame: which
                // requests arrive first depends on the chunking.
                prop_assert!(model.starts_with(&decoded), "{decoded:?} is not a prefix of {model:?}");
            } else {
                prop_assert_eq!(decoded, model.clone());
            }
        }

        // The reassembler the connection reads through holds at most one
        // frame's worth plus the chunk just read.
        let mut frames = FrameBuf::new();
        let mut start = proto::PREAMBLE_V2.len();
        for &end in cuts.iter().chain([&stream.len()]) {
            let end = end.clamp(start, stream.len());
            frames.push(&stream[start..end]);
            prop_assert!(frames.pending() <= 4 + proto::MAX_FRAME_LEN + (end - start));
            loop {
                match frames.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => return Ok(()), // closed
                }
            }
            start = end;
        }
    }
}
