//! Virtual timestamps.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in virtual time, measured in nanoseconds since simulation start.
///
/// `SimTime` is a plain newtype over `u64` so it is `Copy`, totally ordered,
/// and cheap to store in event-queue keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// A timestamp later than any other; used as a sentinel deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from milliseconds since epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds since epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time since epoch expressed in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: Duration) -> Option<SimTime> {
        self.0.checked_add(d.as_nanos() as u64).map(SimTime)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos() as u64))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    /// Panics if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_millis(50);
        assert_eq!(t.as_nanos(), 50_000_000);
        let u = t + Duration::from_millis(25);
        assert_eq!(u - t, Duration::from_millis(25));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert!(SimTime::from_secs(1) < SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::ZERO - SimTime::from_nanos(1);
    }

    #[test]
    fn checked_add_overflow() {
        assert!(SimTime::MAX.checked_add(Duration::from_nanos(1)).is_none());
        assert!(SimTime::ZERO.checked_add(Duration::from_secs(5)).is_some());
    }
}
