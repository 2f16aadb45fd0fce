//! The membership plane's messages and their one codec, built from the
//! [`groupcast::codec`] primitives that also write the [`Wire`] a `Group`
//! message carries; `rndi-net` carries the payloads as opaque bytes.
//!
//! A payload is a version byte ([`VERSION`]), a kind byte, then the kind's
//! fields. An unknown version, kind, state or flag, a truncated field, a
//! count the rest of the input cannot hold and trailing bytes are
//! [`DecodeError`]s: nothing is guessed, nothing allocated for a length
//! only claimed.

use groupcast::codec::{
    put_bytes, put_len, put_str, put_u64, put_u8, DecodeError, Reader, U32_LEN, U64_LEN, U8_LEN,
};
use groupcast::Wire;

/// The payload format this build writes and the only one it reads.
pub const VERSION: u8 = 1;

const SYNC: u8 = 0;
const GROUP: u8 = 1;
const ACK: u8 = 1;

/// A member row with an empty name and endpoint.
const MEMBER_MIN: usize = 2 * U32_LEN + U64_LEN + U8_LEN;

/// One member's lifecycle state as gossiped between nodes, in merge order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemberState {
    Alive,
    Suspect,
    Dead,
    Quarantined,
}

/// One row of a gossiped membership table.
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
/// keeps a healed minority coordinator from installing a rival view).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewSummary {
    pub seq: u64,
    /// Member names in view (coordinator-first) order.
    pub members: Vec<String>,
}

/// What one node sends another.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipRequest {
    /// Push-pull membership exchange; doubles as the heartbeat the
    /// phi-accrual detector scores. `from` is the sender's own row.
    Sync {
        from: MemberEntry,
        entries: Vec<MemberEntry>,
        view: Option<ViewSummary>,
    },
    /// A group-communication frame; `from` is the sender's group address.
    Group {
        group: String,
        from: u64,
        wire: Wire,
    },
}

/// The answer to a [`GossipRequest`], same order of kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipReply {
    /// The pull half of the exchange: the responder's table and view.
    Sync {
        entries: Vec<MemberEntry>,
        view: Option<ViewSummary>,
    },
    /// A group frame was taken in — or an undecodable payload dropped.
    Ack,
}

pub fn encode_request(req: &GossipRequest) -> Vec<u8> {
    let mut out = vec![VERSION];
    match req {
        GossipRequest::Sync {
            from,
            entries,
            view,
        } => {
            put_u8(&mut out, SYNC);
            put_member(&mut out, from);
            put_table(&mut out, entries, view.as_ref());
        }
        GossipRequest::Group { group, from, wire } => {
            put_u8(&mut out, GROUP);
            put_str(&mut out, group);
            put_u64(&mut out, *from);
            put_bytes(&mut out, &wire.encode());
        }
    }
    out
}

pub fn decode_request(payload: &[u8]) -> Result<GossipRequest, DecodeError> {
    decode(payload, |r, kind| match kind {
        SYNC => Ok(GossipRequest::Sync {
            from: member(r)?,
            entries: members(r)?,
            view: view(r)?,
        }),
        GROUP => Ok(GossipRequest::Group {
            group: r.str("group name")?.to_owned(),
            from: r.u64("group sender")?,
            wire: Wire::decode(r.bytes("group wire")?)?,
        }),
        tag => Err(unknown("gossip kind", tag)),
    })
}

pub fn encode_reply(reply: &GossipReply) -> Vec<u8> {
    let mut out = vec![VERSION];
    match reply {
        GossipReply::Sync { entries, view } => {
            put_u8(&mut out, SYNC);
            put_table(&mut out, entries, view.as_ref());
        }
        GossipReply::Ack => put_u8(&mut out, ACK),
    }
    out
}

pub fn decode_reply(payload: &[u8]) -> Result<GossipReply, DecodeError> {
    decode(payload, |r, kind| match kind {
        SYNC => Ok(GossipReply::Sync {
            entries: members(r)?,
            view: view(r)?,
        }),
        ACK => Ok(GossipReply::Ack),
        tag => Err(unknown("gossip reply kind", tag)),
    })
}

fn put_member(out: &mut Vec<u8>, e: &MemberEntry) {
    put_str(out, &e.name);
    put_str(out, &e.endpoint);
    put_u64(out, e.incarnation);
    put_u8(out, e.state as u8);
}

/// A Sync's table and view.
fn put_table(out: &mut Vec<u8>, entries: &[MemberEntry], view: Option<&ViewSummary>) {
    put_len(out, entries.len());
    entries.iter().for_each(|e| put_member(out, e));
    let Some(v) = view else {
        return put_u8(out, 0);
    };
    put_u8(out, 1);
    put_u64(out, v.seq);
    put_len(out, v.members.len());
    v.members.iter().for_each(|m| put_str(out, m));
}

fn unknown(what: &'static str, tag: u8) -> DecodeError {
    DecodeError::UnknownTag { what, tag }
}

/// One payload: the version byte, which must be [`VERSION`], the kind
/// byte, what `body` reads for that kind, and nothing after it.
fn decode<T>(
    payload: &[u8],
    body: impl FnOnce(&mut Reader<'_>, u8) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = Reader::new(payload);
    match r.u8("gossip version")? {
        VERSION => {}
        tag => return Err(unknown("gossip version", tag)),
    }
    let kind = r.u8("gossip kind")?;
    let value = body(&mut r, kind)?;
    r.finish()?;
    Ok(value)
}

fn member(r: &mut Reader<'_>) -> Result<MemberEntry, DecodeError> {
    Ok(MemberEntry {
        name: r.str("member name")?.to_owned(),
        endpoint: r.str("member endpoint")?.to_owned(),
        incarnation: r.u64("member incarnation")?,
        state: match r.u8("member state")? {
            0 => MemberState::Alive,
            1 => MemberState::Suspect,
            2 => MemberState::Dead,
            3 => MemberState::Quarantined,
            tag => return Err(unknown("member state", tag)),
        },
    })
}

fn members(r: &mut Reader<'_>) -> Result<Vec<MemberEntry>, DecodeError> {
    let n = r.count(MEMBER_MIN, "member count")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(member(r)?);
    }
    Ok(entries)
}

fn view(r: &mut Reader<'_>) -> Result<Option<ViewSummary>, DecodeError> {
    match r.u8("view flag")? {
        0 => Ok(None),
        1 => {
            let seq = r.u64("view seq")?;
            let n = r.count(U32_LEN, "view member count")?;
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                members.push(r.str("view member")?.to_owned());
            }
            Ok(Some(ViewSummary { seq, members }))
        }
        tag => Err(unknown("view flag", tag)),
    }
}
