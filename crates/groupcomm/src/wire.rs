//! Wire messages exchanged between members, and their binary form.
//!
//! A frame is a tag byte and then the variant's fields in declaration
//! order, over the primitives of [`crate::codec`]: addresses and sequence
//! numbers as `u64`, bodies as `u32`-prefixed bytes, lists as a `u32`
//! count and their elements. It is what `rndi-cluster` puts on its TCP
//! links, and [`Wire::size`] is that frame's length, computed from the
//! variant's lengths ([`Wire::encode`] sizes its buffer with it).

use crate::addr::Addr;
use crate::codec::{self, bytes_len, DecodeError, Reader, U32_LEN, U64_LEN, U8_LEN};
use crate::view::{View, ViewId};

/// Everything that travels between members.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Wire {
    /// Member → coordinator: please sequence this multicast (Sequencer).
    Forward { origin: Addr, body: Vec<u8> },
    /// Coordinator → members: globally ordered multicast (Sequencer).
    Ordered {
        gseq: u64,
        origin: Addr,
        body: Vec<u8>,
    },
    /// Sender → members: per-sender FIFO multicast (Bimodal).
    Gossip {
        origin: Addr,
        sseq: u64,
        body: Vec<u8>,
    },
    /// Gossip anti-entropy: "my highest contiguous seq per origin is …".
    DigestPush { entries: Vec<(Addr, u64)> },
    /// Retransmission of messages the digest showed missing.
    Retransmit { messages: Vec<(Addr, u64, Vec<u8>)> },
    /// Coordinator → members: install this view.
    InstallView(View),
    /// Coordinator/winner → member: full application state snapshot.
    State { bytes: Vec<u8> },
}

const TAG_FORWARD: u8 = 1;
const TAG_ORDERED: u8 = 2;
const TAG_GOSSIP: u8 = 3;
const TAG_DIGEST_PUSH: u8 = 4;
const TAG_RETRANSMIT: u8 = 5;
const TAG_INSTALL_VIEW: u8 = 6;
const TAG_STATE: u8 = 7;

/// One `DigestPush` entry: origin, seq.
const DIGEST_ENTRY_LEN: usize = 2 * U64_LEN;
/// One `Retransmit` message with an empty body: origin, seq, length.
const RETRANSMIT_MIN_LEN: usize = 2 * U64_LEN + U32_LEN;

impl Wire {
    /// The length of [`Wire::encode`]'s output — the bytes this message
    /// occupies on a link — without producing it: O(1) for single-body
    /// messages, O(entries) for the two lists.
    pub fn size(&self) -> u64 {
        let fields = match self {
            Wire::Forward { body, .. } => U64_LEN + bytes_len(body.len()),
            Wire::Ordered { body, .. } | Wire::Gossip { body, .. } => {
                2 * U64_LEN + bytes_len(body.len())
            }
            Wire::DigestPush { entries } => U32_LEN + entries.len() * DIGEST_ENTRY_LEN,
            Wire::Retransmit { messages } => {
                U32_LEN
                    + messages
                        .iter()
                        .map(|(_, _, body)| RETRANSMIT_MIN_LEN + body.len())
                        .sum::<usize>()
            }
            Wire::InstallView(view) => 2 * U64_LEN + U32_LEN + view.members.len() * U64_LEN,
            Wire::State { bytes } => bytes_len(bytes.len()),
        };
        (U8_LEN + fields) as u64
    }

    /// The frame for this message.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size() as usize);
        match self {
            Wire::Forward { origin, body } => {
                codec::put_u8(&mut out, TAG_FORWARD);
                codec::put_u64(&mut out, origin.0);
                codec::put_bytes(&mut out, body);
            }
            Wire::Ordered { gseq, origin, body } => {
                codec::put_u8(&mut out, TAG_ORDERED);
                codec::put_u64(&mut out, *gseq);
                codec::put_u64(&mut out, origin.0);
                codec::put_bytes(&mut out, body);
            }
            Wire::Gossip { origin, sseq, body } => {
                codec::put_u8(&mut out, TAG_GOSSIP);
                codec::put_u64(&mut out, origin.0);
                codec::put_u64(&mut out, *sseq);
                codec::put_bytes(&mut out, body);
            }
            Wire::DigestPush { entries } => {
                codec::put_u8(&mut out, TAG_DIGEST_PUSH);
                codec::put_len(&mut out, entries.len());
                for (origin, seq) in entries {
                    codec::put_u64(&mut out, origin.0);
                    codec::put_u64(&mut out, *seq);
                }
            }
            Wire::Retransmit { messages } => {
                codec::put_u8(&mut out, TAG_RETRANSMIT);
                codec::put_len(&mut out, messages.len());
                for (origin, seq, body) in messages {
                    codec::put_u64(&mut out, origin.0);
                    codec::put_u64(&mut out, *seq);
                    codec::put_bytes(&mut out, body);
                }
            }
            Wire::InstallView(view) => {
                codec::put_u8(&mut out, TAG_INSTALL_VIEW);
                codec::put_u64(&mut out, view.id.seq);
                codec::put_u64(&mut out, view.id.coord.0);
                codec::put_len(&mut out, view.members.len());
                for member in &view.members {
                    codec::put_u64(&mut out, member.0);
                }
            }
            Wire::State { bytes } => {
                codec::put_u8(&mut out, TAG_STATE);
                codec::put_bytes(&mut out, bytes);
            }
        }
        out
    }

    /// The message in `frame`, which must hold exactly one: a truncated
    /// frame, an unknown tag, a memberless view and trailing bytes are all
    /// errors, found before anything is allocated for a length they claim.
    pub fn decode(frame: &[u8]) -> Result<Wire, DecodeError> {
        let mut r = Reader::new(frame);
        let wire = match r.u8("wire tag")? {
            TAG_FORWARD => Wire::Forward {
                origin: Addr(r.u64("origin")?),
                body: r.bytes("body")?.to_vec(),
            },
            TAG_ORDERED => Wire::Ordered {
                gseq: r.u64("gseq")?,
                origin: Addr(r.u64("origin")?),
                body: r.bytes("body")?.to_vec(),
            },
            TAG_GOSSIP => Wire::Gossip {
                origin: Addr(r.u64("origin")?),
                sseq: r.u64("sseq")?,
                body: r.bytes("body")?.to_vec(),
            },
            TAG_DIGEST_PUSH => {
                let n = r.count(DIGEST_ENTRY_LEN, "digest entries")?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((Addr(r.u64("origin")?), r.u64("seq")?));
                }
                Wire::DigestPush { entries }
            }
            TAG_RETRANSMIT => {
                let n = r.count(RETRANSMIT_MIN_LEN, "retransmitted messages")?;
                let mut messages = Vec::with_capacity(n);
                for _ in 0..n {
                    messages.push((
                        Addr(r.u64("origin")?),
                        r.u64("seq")?,
                        r.bytes("body")?.to_vec(),
                    ));
                }
                Wire::Retransmit { messages }
            }
            TAG_INSTALL_VIEW => {
                let id = ViewId {
                    seq: r.u64("view seq")?,
                    coord: Addr(r.u64("view coordinator")?),
                };
                let n = r.count(U64_LEN, "view members")?;
                if n == 0 {
                    return Err(DecodeError::Invalid("view without members"));
                }
                let mut members = Vec::with_capacity(n);
                for _ in 0..n {
                    members.push(Addr(r.u64("view member")?));
                }
                Wire::InstallView(View { id, members })
            }
            TAG_STATE => Wire::State {
                bytes: r.bytes("state")?.to_vec(),
            },
            tag => {
                return Err(DecodeError::UnknownTag {
                    what: "wire tag",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_roundtrips_at_its_stated_size() {
        let wires = [
            Wire::Forward {
                origin: Addr(1),
                body: vec![1, 2, 3],
            },
            Wire::Ordered {
                gseq: 9,
                origin: Addr(u64::MAX),
                body: vec![],
            },
            Wire::Gossip {
                origin: Addr(2),
                sseq: 4,
                body: vec![0; 300],
            },
            Wire::DigestPush {
                entries: vec![(Addr(1), 5), (Addr(2), 0)],
            },
            Wire::Retransmit {
                messages: vec![(Addr(1), 5, vec![7; 9]), (Addr(3), 6, vec![])],
            },
            Wire::InstallView(View::new(3, vec![Addr(5), Addr(2), Addr(9)])),
            Wire::State { bytes: vec![42] },
        ];
        for w in wires {
            let frame = w.encode();
            assert_eq!(w.size(), frame.len() as u64, "{w:?}");
            assert_eq!(Wire::decode(&frame), Ok(w));
        }
    }

    #[test]
    fn a_benchmark_sized_body_costs_its_length_plus_a_small_header() {
        let w = Wire::Ordered {
            gseq: 1,
            origin: Addr(1),
            body: vec![0; 105],
        };
        assert_eq!(w.size(), 105 + 21);
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert_eq!(Wire::decode(b""), Err(DecodeError::Truncated("wire tag")));
        assert_eq!(
            Wire::decode(&[0xEE]),
            Err(DecodeError::UnknownTag {
                what: "wire tag",
                tag: 0xEE
            })
        );
        let mut frame = Wire::State { bytes: vec![1] }.encode();
        frame.push(0);
        assert_eq!(Wire::decode(&frame), Err(DecodeError::Trailing(1)));
        // A view with no members could never have been built by `View::new`.
        let mut memberless = vec![TAG_INSTALL_VIEW];
        memberless.extend_from_slice(&[0; 2 * U64_LEN + U32_LEN]);
        assert_eq!(
            Wire::decode(&memberless),
            Err(DecodeError::Invalid("view without members"))
        );
        // A count of u32::MAX is refused on sight, not allocated for.
        let mut hostile = vec![TAG_DIGEST_PUSH];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Wire::decode(&hostile),
            Err(DecodeError::Truncated("digest entries"))
        );
    }
}
