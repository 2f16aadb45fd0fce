//! Member addresses.

use std::fmt;

/// Identifies one channel endpoint (a group member). Addresses are
/// assigned by the [`Cluster`](crate::cluster::Cluster) at channel creation
/// and are never reused — a restarted process gets a fresh address, which
/// is how membership distinguishes incarnations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_display() {
        assert!(Addr(1) < Addr(2));
        assert_eq!(Addr(3).to_string(), "m3");
    }
}
