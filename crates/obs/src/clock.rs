//! The process's clocks: a cheap monotonic nanosecond clock for hot-path
//! span timing ([`now_ns`]), and the one injectable millisecond [`Clock`]
//! that leases, TTLs and caches read, so tests and simulations can drive
//! time by hand ([`ManualClock`]).
//!
//! `Instant::now()` goes through the vDSO (`clock_gettime`) — fine in
//! isolation, but an instrumented pipeline reads the clock twice per obs
//! layer, and those ~25ns reads add up to a measurable slice of the
//! telemetry budget. On x86_64 the TSC is invariant on any hardware this
//! runs on, so one `rdtsc` plus a multiply gives the same answer for a
//! third of the cost.
//!
//! The tick-to-nanosecond scale is calibrated once per process against
//! `Instant` over a short sleep; if the TSC looks unusable (no ticks
//! elapsed — emulators, exotic guests) the clock quietly falls back to
//! `Instant`. Readings are process-relative nanoseconds: only differences
//! are meaningful, which is all span timing needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Milliseconds since an arbitrary epoch.
pub trait Clock: Send + Sync {
    fn now_ms(&self) -> u64;
}

/// Wall-clock time relative to the clock's creation.
pub struct SystemClock {
    start: Instant,
}

impl SystemClock {
    pub fn new() -> Arc<Self> {
        Arc::new(SystemClock {
            start: Instant::now(),
        })
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

/// A manually advanced clock for tests and simulations; starts at 0.
#[derive(Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock::default())
    }

    pub fn advance(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::Relaxed);
    }

    pub fn set(&self, ms: u64) {
        self.now.store(ms, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

struct Calib {
    base: Instant,
    tsc0: u64,
    /// Nanoseconds per TSC tick; `0.0` means "use `Instant`".
    ns_per_tick: f64,
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn rdtsc() -> u64 {
    // SAFETY: RDTSC has no preconditions; it is unsafe only because all
    // arch intrinsics are.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn rdtsc() -> u64 {
    0
}

fn calib() -> &'static Calib {
    static CALIB: OnceLock<Calib> = OnceLock::new();
    CALIB.get_or_init(|| {
        let base = Instant::now();
        let tsc0 = rdtsc();
        let ns_per_tick = if cfg!(target_arch = "x86_64") {
            std::thread::sleep(std::time::Duration::from_millis(5));
            let dt = base.elapsed().as_nanos() as f64;
            let dtsc = rdtsc().wrapping_sub(tsc0);
            if dtsc == 0 {
                0.0
            } else {
                dt / dtsc as f64
            }
        } else {
            0.0
        };
        Calib {
            base,
            tsc0,
            ns_per_tick,
        }
    })
}

/// Warm the calibration (one ~5ms sleep, once per process) so the first
/// instrumented op doesn't pay for it. Called from pipeline assembly.
pub fn init() {
    calib();
}

/// Process-relative monotonic nanoseconds. Subtract two readings for a
/// duration; the absolute value means nothing outside this process.
#[inline]
pub fn now_ns() -> u64 {
    let c = calib();
    if c.ns_per_tick > 0.0 {
        (rdtsc().wrapping_sub(c.tsc0) as f64 * c.ns_per_tick) as u64
    } else {
        c.base.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_wall_time_within_tolerance() {
        // Calibrate first: its one-off sleep must not land between the two
        // starting reads below.
        init();
        let w0 = Instant::now();
        let c0 = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let wall = w0.elapsed().as_nanos() as f64;
        let clock = (now_ns() - c0) as f64;
        let ratio = clock / wall;
        assert!(
            (0.9..1.1).contains(&ratio),
            "clock drift vs Instant: ratio {ratio}"
        );
    }

    #[test]
    fn manual_clock_moves_only_when_told() {
        let c = ManualClock::new();
        assert_eq!(c.now_ms(), 0);
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_ms(), 12);
        c.set(5);
        assert_eq!(c.now_ms(), 5);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_ms();
        assert!(c.now_ms() >= a);
    }

    #[test]
    fn is_monotonic_across_reads() {
        let mut last = now_ns();
        for _ in 0..10_000 {
            let next = now_ns();
            assert!(next >= last, "clock went backwards: {last} -> {next}");
            last = next;
        }
    }
}
