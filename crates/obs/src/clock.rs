//! The process's one injectable millisecond [`Clock`]: what leases, TTLs
//! and caches read, so tests and simulations can drive time by hand
//! ([`ManualClock`]). Span timing does not go through it: an obs layer
//! times its op with `Instant`, whose read is a vDSO call of a few tens of
//! nanoseconds on an op of microseconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
