//! Quarantine: keeping flapping nodes out until they cool down.
//!
//! A node declared dead is *barred* for a cooldown window, and the bar is
//! strictly time-gated: **no** claim of life re-admits the name before
//! the window elapses, not even one carrying a bumped incarnation. A
//! flapping process that crashes and restarts in a tight loop therefore
//! costs the cluster one view change per cooldown, not one per flap.
//!
//! The incarnation recorded with the bar is the one the node died at;
//! after the cooldown the membership merge precedence still requires a
//! strictly higher incarnation to resurrect a Dead record — which the
//! restarted node acquires automatically by refuting the death rumour
//! (see [`MembershipTable::observe`](crate::membership::MembershipTable::observe)).
//! Re-admission is thus exactly "cooldown served *and* incarnation
//! bumped".

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
struct Bar {
    /// The quarantine expires at this instant.
    until_ms: u64,
    /// The incarnation the node died at (diagnostics; merge precedence
    /// enforces the bump, the table enforces the time gate).
    incarnation: u64,
}

/// Names currently barred from re-admission.
#[derive(Clone, Debug, Default)]
pub struct QuarantineTable {
    barred: BTreeMap<String, Bar>,
}

impl QuarantineTable {
    pub fn new() -> QuarantineTable {
        QuarantineTable::default()
    }

    /// Bar `name` (which died at `incarnation`) until `until_ms`. A later
    /// bar for the same name extends/replaces the earlier one.
    pub fn bar(&mut self, name: &str, incarnation: u64, until_ms: u64) {
        let bar = Bar {
            until_ms,
            incarnation,
        };
        self.barred
            .entry(name.to_string())
            .and_modify(|b| {
                b.until_ms = b.until_ms.max(bar.until_ms);
                b.incarnation = b.incarnation.max(bar.incarnation);
            })
            .or_insert(bar);
    }

    /// May `name` rejoin at `now_ms`? Only when it was never barred or
    /// the cooldown has fully elapsed.
    pub fn admit(&self, name: &str, now_ms: u64) -> bool {
        !self.is_barred(name, now_ms)
    }

    /// Is `name` still inside an active cooldown window?
    pub fn is_barred(&self, name: &str, now_ms: u64) -> bool {
        self.barred
            .get(name)
            .is_some_and(|bar| now_ms < bar.until_ms)
    }

    /// Drop expired bars.
    pub fn sweep(&mut self, now_ms: u64) {
        self.barred.retain(|_, bar| now_ms < bar.until_ms);
    }

    pub fn len(&self) -> usize {
        self.barred.len()
    }

    pub fn is_empty(&self) -> bool {
        self.barred.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barred_until_cooldown() {
        let mut q = QuarantineTable::new();
        q.bar("n1", 3, 1_000);
        assert!(!q.admit("n1", 500));
        assert!(!q.admit("n1", 999));
        assert!(q.admit("n1", 1_000), "cooldown expiry re-admits");
        assert!(q.admit("other", 0), "unbarred names unaffected");
    }

    #[test]
    fn bump_does_not_bypass_the_clock() {
        let mut q = QuarantineTable::new();
        q.bar("n1", 3, 1_000);
        // The time gate is absolute; the incarnation is bookkeeping.
        assert!(!q.admit("n1", 999));
        assert_eq!(q.barred.get("n1").map(|b| b.incarnation), Some(3));
    }

    #[test]
    fn rebar_extends() {
        let mut q = QuarantineTable::new();
        q.bar("n1", 3, 1_000);
        q.bar("n1", 4, 800);
        assert!(!q.admit("n1", 900), "deadline kept at the max");
        assert_eq!(q.barred.get("n1").map(|b| b.incarnation), Some(4));
        q.sweep(1_000);
        assert!(q.is_empty());
    }
}
