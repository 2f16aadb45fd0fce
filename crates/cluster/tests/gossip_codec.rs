//! The membership plane's codec (`rndi_cluster::msg`) against honest and
//! hostile input: every request and reply kind round trips, an unknown
//! version or kind is refused by name, truncation, noise and trailing bytes
//! are errors, and a decode allocates in proportion to its input, not to
//! the counts that input claims — measured, so in a test binary of its own
//! with a counting `#[global_allocator]` (gated per thread: the harness's
//! other threads never leak into a figure). And at a node: a payload that
//! does not decode is counted and changes nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use groupcast::codec::{self, DecodeError};
use groupcast::{Addr, View, Wire};
use rndi_cluster::msg::{decode_reply, decode_request, encode_reply, encode_request, VERSION};
use rndi_cluster::{addr_of, ClusterConfig, NodeReplica};
use rndi_cluster::{GossipReply, GossipRequest, MemberEntry, MemberState, ViewSummary};
use rndi_core::env::Environment;
use rndi_obs::metrics::{names, Registry};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// cells and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f()` and the bytes this thread allocated for it.
fn counting<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATED.with(Cell::get) - before)
}

/// What a decode may allocate per input byte, whatever the input claims:
/// text is copied once, and the densest list — a view's member names, 4
/// bytes on the wire per 24-byte `String` — sextuples.
const ALLOC_PER_INPUT_BYTE: usize = 6;

fn member(name: &str, port: u16, incarnation: u64, state: MemberState) -> MemberEntry {
    MemberEntry {
        name: name.into(),
        endpoint: format!("127.0.0.1:{port}"),
        incarnation,
        state,
    }
}

fn any_member() -> impl Strategy<Value = MemberEntry> {
    (
        "[a-z0-9-]{0,12}",
        "[a-z0-9.:]{0,16}",
        any::<u64>(),
        0usize..4,
    )
        .prop_map(|(name, endpoint, incarnation, state)| MemberEntry {
            name,
            endpoint,
            incarnation,
            state: [
                MemberState::Alive,
                MemberState::Suspect,
                MemberState::Dead,
                MemberState::Quarantined,
            ][state],
        })
}

fn any_view() -> impl Strategy<Value = Option<ViewSummary>> {
    proptest::option::of(
        (
            any::<u64>(),
            proptest::collection::vec("[a-z0-9-]{0,8}", 0..6),
        )
            .prop_map(|(seq, members)| ViewSummary { seq, members }),
    )
}

fn any_wire() -> impl Strategy<Value = Wire> {
    prop_oneof![
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)).prop_map(|(origin, body)| {
            Wire::Forward {
                origin: Addr(origin),
                body,
            }
        }),
        (any::<u64>(), proptest::collection::vec(any::<u64>(), 1..6)).prop_map(|(seq, members)| {
            Wire::InstallView(View::new(seq, members.into_iter().map(Addr).collect()))
        }),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|bytes| Wire::State { bytes }),
    ]
}

fn any_request() -> impl Strategy<Value = GossipRequest> {
    prop_oneof![
        (
            any_member(),
            proptest::collection::vec(any_member(), 0..6),
            any_view()
        )
            .prop_map(|(from, entries, view)| GossipRequest::Sync {
                from,
                entries,
                view
            }),
        ("[a-z]{0,8}", any::<u64>(), any_wire())
            .prop_map(|(group, from, wire)| GossipRequest::Group { group, from, wire }),
    ]
}

fn any_reply() -> impl Strategy<Value = GossipReply> {
    prop_oneof![
        (proptest::collection::vec(any_member(), 0..6), any_view())
            .prop_map(|(entries, view)| GossipReply::Sync { entries, view }),
        Just(GossipReply::Ack),
    ]
}

#[test]
fn gossip_envelopes_roundtrip() {
    let me = member("node-0", 7000, 3, MemberState::Alive);
    let peer = member("node-1", 7001, 9, MemberState::Suspect);
    let gone = member("node-2", 7002, 2, MemberState::Quarantined);
    let view = ViewSummary {
        seq: 4,
        members: vec!["node-0".into(), "node-1".into()],
    };
    let requests = [
        GossipRequest::Sync {
            from: me.clone(),
            entries: vec![me.clone(), peer.clone(), gone],
            view: Some(view.clone()),
        },
        GossipRequest::Sync {
            from: me,
            entries: vec![],
            view: None,
        },
        GossipRequest::Group {
            group: "hdns".into(),
            from: 42,
            wire: Wire::InstallView(View::new(4, vec![Addr(3), Addr(5)])),
        },
        GossipRequest::Group {
            group: "hdns".into(),
            from: 42,
            wire: Wire::State {
                bytes: vec![1, 2, 3, 255],
            },
        },
    ];
    for req in requests {
        let payload = encode_request(&req);
        assert_eq!(payload[0], VERSION, "{req:?}");
        assert_eq!(decode_request(&payload), Ok(req));
    }
    let replies = [
        GossipReply::Sync {
            entries: vec![peer],
            view: Some(view),
        },
        GossipReply::Sync {
            entries: vec![],
            view: None,
        },
        GossipReply::Ack,
    ];
    for reply in replies {
        let payload = encode_reply(&reply);
        assert_eq!(payload[0], VERSION, "{reply:?}");
        assert_eq!(decode_reply(&payload), Ok(reply));
    }
}

#[test]
fn unknown_gossip_kinds_error_cleanly() {
    type Decode = fn(&[u8]) -> Result<(), DecodeError>;
    let request: Decode = |payload| decode_request(payload).map(|_| ());
    let reply: Decode = |payload| decode_reply(payload).map(|_| ());
    for (decode, what) in [(request, "gossip kind"), (reply, "gossip reply kind")] {
        let err = decode(&[VERSION, 9]).unwrap_err();
        assert_eq!(err, DecodeError::UnknownTag { what, tag: 9 });
        assert!(err.to_string().contains("unknown gossip"), "{err}");
        // A version this build does not write is refused before its kind
        // is read: never guessed at.
        for version in [0, VERSION + 1, 0xFF] {
            assert_eq!(
                decode(&[version, 0]),
                Err(DecodeError::UnknownTag {
                    what: "gossip version",
                    tag: version,
                })
            );
        }
        assert_eq!(decode(&[]), Err(DecodeError::Truncated("gossip version")));
    }
    // A state or flag no encoder writes is as unknown as a kind.
    let mut sync = encode_request(&GossipRequest::Sync {
        from: member("a", 1, 1, MemberState::Alive),
        entries: vec![],
        view: None,
    });
    let flag = sync.len() - 1;
    sync[flag] = 2;
    assert_eq!(
        decode_request(&sync),
        Err(DecodeError::UnknownTag {
            what: "view flag",
            tag: 2
        })
    );
    let state = flag - 4 - 1;
    sync[state] = 4;
    assert_eq!(
        decode_request(&sync),
        Err(DecodeError::UnknownTag {
            what: "member state",
            tag: 4
        })
    );
}

#[test]
fn hostile_member_count_fails_before_allocation() {
    // A Sync promising 4 billion members with no bytes behind them — as a
    // request, as a reply, and as a view's names — fails on the count,
    // before a table is allocated.
    let mut sync = vec![VERSION, 0];
    sync.extend_from_slice(&0u32.to_le_bytes()); // from.name = ""
    sync.extend_from_slice(&0u32.to_le_bytes()); // from.endpoint = ""
    sync.extend_from_slice(&1u64.to_le_bytes()); // incarnation
    sync.push(0); // Alive
    sync.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile count
    sync.extend_from_slice(b"a few real bytes");
    let (decoded, allocated) = counting(|| decode_request(&sync));
    assert_eq!(decoded, Err(DecodeError::Truncated("member count")));
    assert_eq!(allocated, 0);

    let mut reply = vec![VERSION, 0];
    reply.extend_from_slice(&u32::MAX.to_le_bytes());
    let (decoded, allocated) = counting(|| decode_reply(&reply));
    assert_eq!(decoded, Err(DecodeError::Truncated("member count")));
    assert_eq!(allocated, 0);

    let mut view = vec![VERSION, 0];
    view.extend_from_slice(&0u32.to_le_bytes()); // no entries
    view.push(1); // a view follows
    view.extend_from_slice(&7u64.to_le_bytes()); // seq
    view.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile count
    let (decoded, allocated) = counting(|| decode_reply(&view));
    assert_eq!(decoded, Err(DecodeError::Truncated("view member count")));
    assert_eq!(allocated, 0);

    // The counter does count: an honest table is allocated once, exactly.
    let honest = encode_reply(&GossipReply::Sync {
        entries: vec![member("", 1, 1, MemberState::Alive)],
        view: None,
    });
    let endpoint_len = "127.0.0.1:1".len();
    let table = std::mem::size_of::<MemberEntry>();
    assert_eq!(counting(|| decode_reply(&honest)).1, table + endpoint_len);
}

fn sync_from(name: &str) -> Vec<u8> {
    encode_request(&GossipRequest::Sync {
        from: member(name, 1, 1, MemberState::Alive),
        entries: vec![],
        view: None,
    })
}

#[test]
fn an_undecodable_payload_at_a_node_is_counted_and_changes_nothing() {
    let registry = Registry::new();
    let config = ClusterConfig::from_env("a", "g", &Environment::new()).unwrap();
    let node = NodeReplica::new(&config, &registry);
    node.open("a:1").unwrap();
    let mut state = node.state.lock();
    let ack = encode_reply(&GossipReply::Ack);
    assert_ne!(state.handle(&sync_from("b"), 10), ack, "b's Sync is served");
    let (members, view) = (state.members(), state.view());
    assert_eq!(members.len(), 2);
    assert!(view.is_some());

    // Each would change the table or the group core if it decoded.
    let mut truncated = sync_from("c");
    truncated.pop();
    let mut trailing = sync_from("c");
    trailing.push(0);
    let mut bad_wire = vec![VERSION, 1];
    codec::put_str(&mut bad_wire, "g");
    codec::put_u64(&mut bad_wire, addr_of("b").0);
    codec::put_bytes(&mut bad_wire, &[0xEE]);
    let garbage = [
        vec![],
        vec![VERSION + 1, 0],
        vec![VERSION, 9],
        truncated,
        trailing,
        bad_wire,
    ];
    for payload in &garbage {
        assert_eq!(state.handle(payload, 20), ack, "{payload:?}");
    }
    // A Sync's reply that does not decode is counted as well.
    state.absorb(Some("b"), "b:1", &[VERSION, 0, 0xFF], 20);

    let undecodable = registry.counter(names::CLUSTER_UNDECODABLE_FRAMES, &[]);
    assert_eq!(undecodable.get(), garbage.len() as u64 + 1);
    assert_eq!(state.members(), members);
    assert_eq!(state.view(), view);
}

proptest! {
    #[test]
    fn gossip_codec_roundtrips(req in any_request(), reply in any_reply()) {
        let payload = encode_request(&req);
        let (decoded, allocated) = counting(|| decode_request(&payload));
        prop_assert_eq!(decoded, Ok(req));
        prop_assert!(allocated <= ALLOC_PER_INPUT_BYTE * payload.len());

        let payload = encode_reply(&reply);
        let (decoded, allocated) = counting(|| decode_reply(&payload));
        prop_assert_eq!(decoded, Ok(reply));
        prop_assert!(allocated <= ALLOC_PER_INPUT_BYTE * payload.len());
    }

    #[test]
    fn gossip_codec_rejects_every_prefix_and_any_suffix(
        req in any_request(),
        reply in any_reply(),
        extra in any::<u8>(),
    ) {
        let mut payload = encode_request(&req);
        for cut in 0..payload.len() {
            let (decoded, allocated) = counting(|| decode_request(&payload[..cut]));
            prop_assert!(decoded.is_err(), "request prefix of {} bytes decoded", cut);
            prop_assert!(allocated <= ALLOC_PER_INPUT_BYTE * cut);
        }
        payload.push(extra);
        prop_assert_eq!(decode_request(&payload), Err(DecodeError::Trailing(1)));
        let mut payload = encode_reply(&reply);
        for cut in 0..payload.len() {
            let (decoded, allocated) = counting(|| decode_reply(&payload[..cut]));
            prop_assert!(decoded.is_err(), "reply prefix of {} bytes decoded", cut);
            prop_assert!(allocated <= ALLOC_PER_INPUT_BYTE * cut);
        }
        payload.push(extra);
        prop_assert_eq!(decode_reply(&payload), Err(DecodeError::Trailing(1)));
    }

    #[test]
    fn gossip_codec_survives_arbitrary_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        kind in 0u8..3,
        tagged in any::<bool>(),
    ) {
        // Bare noise mostly dies on the version; give half the cases a
        // known version and kind so the field readers meet hostile
        // lengths and counts.
        let mut payload = noise;
        if tagged {
            payload.splice(0..0, [VERSION, kind]);
        }
        let (request, allocated) = counting(|| decode_request(&payload));
        prop_assert!(allocated <= ALLOC_PER_INPUT_BYTE * payload.len());
        if let Ok(req) = request {
            prop_assert_eq!(encode_request(&req), payload.clone(), "what decodes is canonical");
        }
        let (reply, allocated) = counting(|| decode_reply(&payload));
        prop_assert!(allocated <= ALLOC_PER_INPUT_BYTE * payload.len());
        if let Ok(reply) = reply {
            prop_assert_eq!(encode_reply(&reply), payload, "what decodes is canonical");
        }
    }
}
