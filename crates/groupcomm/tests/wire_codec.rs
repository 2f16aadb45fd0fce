//! `Wire`'s binary codec against hostile and honest input: round trips,
//! `size()` as the encoded length, strict rejection, and a bound on what a
//! decode may allocate — measured, so in a test binary of its own with a
//! counting `#[global_allocator]` (gated per thread: the harness's other
//! threads never leak into a figure).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use groupcast::codec::DecodeError;
use groupcast::{Addr, View, Wire};

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

/// `Wire::decode(frame)` and the bytes this thread allocated for it.
fn decode_counting(frame: &[u8]) -> (Result<Wire, DecodeError>, usize) {
    let before = ALLOCATED.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let result = Wire::decode(frame);
    COUNTING.with(|on| on.set(false));
    (result, ALLOCATED.with(Cell::get) - before)
}

/// What a decode may allocate per input byte, whatever the input claims:
/// bodies are copied once, and the densest list — `Retransmit`, 20 bytes on
/// the wire per 40-byte `(Addr, u64, Vec<u8>)` — doubles.
const ALLOC_PER_INPUT_BYTE: usize = 2;

fn any_body() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        6 => proptest::collection::vec(any::<u8>(), 0..300),
        1 => Just(Vec::new()),
        1 => any::<u8>().prop_map(|b| vec![b; 64 * 1024]),
    ]
}

fn any_addr() -> impl Strategy<Value = Addr> {
    any::<u64>().prop_map(Addr)
}

fn any_wire() -> impl Strategy<Value = Wire> {
    prop_oneof![
        (any_addr(), any_body()).prop_map(|(origin, body)| Wire::Forward { origin, body }),
        (any::<u64>(), any_addr(), any_body()).prop_map(|(gseq, origin, body)| Wire::Ordered {
            gseq,
            origin,
            body
        }),
        (any_addr(), any::<u64>(), any_body()).prop_map(|(origin, sseq, body)| Wire::Gossip {
            origin,
            sseq,
            body
        }),
        proptest::collection::vec((any_addr(), any::<u64>()), 0..12)
            .prop_map(|entries| Wire::DigestPush { entries }),
        proptest::collection::vec((any_addr(), any::<u64>(), any_body()), 0..4)
            .prop_map(|messages| Wire::Retransmit { messages }),
        (any::<u64>(), proptest::collection::vec(any_addr(), 1..9))
            .prop_map(|(seq, members)| Wire::InstallView(View::new(seq, members))),
        any_body().prop_map(|bytes| Wire::State { bytes }),
    ]
}

proptest! {
    #[test]
    fn wire_codec_roundtrips_at_the_stated_size(w in any_wire()) {
        let frame = w.encode();
        prop_assert_eq!(w.size(), frame.len() as u64);
        let (decoded, allocated) = decode_counting(&frame);
        prop_assert_eq!(decoded, Ok(w));
        prop_assert!(allocated <= ALLOC_PER_INPUT_BYTE * frame.len());
    }

    #[test]
    fn wire_codec_rejects_every_prefix_and_any_suffix(w in any_wire(), extra in any::<u8>()) {
        let frame = w.encode();
        // Every cut of a small frame; a spread of cuts of a 64 KiB one.
        let step = (frame.len() / 512).max(1);
        for cut in (0..frame.len()).step_by(step).chain([frame.len() - 1]) {
            let (decoded, allocated) = decode_counting(&frame[..cut]);
            prop_assert!(decoded.is_err(), "prefix of {} bytes decoded", cut);
            prop_assert!(allocated <= ALLOC_PER_INPUT_BYTE * cut);
        }
        let mut longer = frame;
        longer.push(extra);
        let (decoded, allocated) = decode_counting(&longer);
        prop_assert_eq!(decoded, Err(DecodeError::Trailing(1)));
        prop_assert!(allocated <= ALLOC_PER_INPUT_BYTE * longer.len());
    }

    #[test]
    fn wire_codec_survives_arbitrary_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        tag in 0u8..10,
        tagged in any::<bool>(),
    ) {
        // Bare noise mostly dies on the tag; give half the cases a known
        // one so the field readers meet hostile lengths and counts.
        let mut frame = noise;
        if tagged {
            frame.insert(0, tag);
        }
        let (decoded, allocated) = decode_counting(&frame);
        prop_assert!(allocated <= ALLOC_PER_INPUT_BYTE * frame.len());
        if let Ok(w) = decoded {
            prop_assert_eq!(w.encode(), frame, "what decodes is canonical");
        }
    }
}

#[test]
fn wire_codec_refuses_a_length_of_u32_max_without_allocating() {
    // Forward, Ordered, Gossip, DigestPush, Retransmit, InstallView, State:
    // each with u32::MAX where its first length or count sits.
    for (tag, fixed_before) in [(1u8, 8), (2, 16), (3, 16), (4, 0), (5, 0), (6, 16), (7, 0)] {
        let mut frame = vec![tag];
        frame.extend_from_slice(&vec![0; fixed_before]);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(b"a few real bytes");
        let (decoded, allocated) = decode_counting(&frame);
        assert!(
            matches!(decoded, Err(DecodeError::Truncated(_))),
            "tag {tag}: {decoded:?}"
        );
        assert_eq!(allocated, 0, "tag {tag}");
    }
    // The counter does count: an honest body is copied exactly once.
    let frame = Wire::State {
        bytes: vec![7; 100],
    }
    .encode();
    assert_eq!(decode_counting(&frame).1, 100);
}
