//! A counting `#[global_allocator]` for the allocation-budget tests. Each
//! lives in a test binary of its own (`mod common;` installs the allocator
//! for the whole binary); counting is gated per thread, so background
//! threads (replica drivers, the harness) never leak into a figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// One call into the allocator that asked for `bytes`.
fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
            let _ = LIVE_BYTES.try_with(|n| {
                n.set(n.get() + bytes as i64);
                let _ = PEAK_LIVE_BYTES.try_with(|peak| peak.set(peak.get().max(n.get())));
            });
        }
    });
}

/// `bytes` given back: by a `dealloc`, or as the old block of a `realloc`.
fn note_freed(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - bytes as i64));
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
        note_freed(layout.size());
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
        note_freed(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What this thread allocated while some closure ran: calls into the
/// allocator (a `realloc` is one), and the bytes they asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocated {
    pub calls: u64,
    pub bytes: u64,
}

/// `f`'s result and what this thread allocated while it ran.
pub fn count_during<R>(f: impl FnOnce() -> R) -> (R, Allocated) {
    let before = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
    COUNTING.with(|on| on.set(true));
    let result = f();
    COUNTING.with(|on| on.set(false));
    let allocated = Allocated {
        calls: ALLOCATIONS.with(Cell::get) - before.0,
        bytes: ALLOCATED_BYTES.with(Cell::get) - before.1,
    };
    (result, allocated)
}

/// `f`'s result and by how many bytes this thread's heap grew while it ran:
/// what it asked for minus what it gave back, so what `f` left behind.
#[allow(dead_code)] // each test binary uses its own part of this module
pub fn live_bytes_during<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let (result, _) = count_during(f);
    (result, LIVE_BYTES.with(Cell::get) - before)
}

/// `f`'s result and the most this thread's heap grew while it ran: the
/// high-water mark of its live bytes, over where they stood when `f` began.
/// A `realloc` counts its old and new blocks together, as a copy holds both.
#[allow(dead_code)] // each test binary uses its own part of this module
pub fn peak_bytes_during<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_LIVE_BYTES.with(|peak| peak.set(before));
    let (result, _) = count_during(f);
    (result, PEAK_LIVE_BYTES.with(Cell::get) - before)
}
