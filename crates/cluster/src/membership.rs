//! The membership table: what this node believes about every peer.
//!
//! Beliefs are SWIM-style `(incarnation, state)` pairs merged under a
//! total precedence order, so any two nodes exchanging tables converge
//! on the same belief regardless of message order:
//!
//! 1. a **higher incarnation** wins outright — the node itself is the
//!    only producer of its incarnation, so a higher number is always
//!    fresher first-hand news;
//! 2. at **equal incarnation** the graver state wins
//!    (`Alive < Suspect < Dead < Quarantined`) — third parties can only
//!    push a node *down* the lifecycle; only the node itself (by bumping
//!    its incarnation) can refute suspicion.
//!
//! Refutation is automatic: when a node sees *itself* reported Suspect or
//! worse at an incarnation at least its own, it adopts
//! `incarnation + 1` and re-asserts Alive, which outranks the rumour
//! everywhere it has spread. A restarted node rejoins the same way — its
//! first gossip exchange teaches it that the cluster holds it Dead, and
//! it bumps — but the bump alone is not enough: the [`QuarantineTable`]
//! additionally time-gates re-admission until the death's cooldown has
//! elapsed, so a crash-looping process cannot churn views on every lap.

use std::collections::BTreeMap;

use crate::msg::{MemberEntry, MemberState};

use crate::quarantine::QuarantineTable;

/// One peer's record.
#[derive(Clone, Debug)]
pub struct MemberInfo {
    pub name: String,
    /// `host:port` the peer's gossip/data server listens on.
    pub endpoint: String,
    pub incarnation: u64,
    pub state: MemberState,
    /// When (caller clock, ms) the current state was recorded locally.
    pub since_ms: u64,
}

impl MemberInfo {
    pub fn entry(&self) -> MemberEntry {
        MemberEntry {
            name: self.name.clone(),
            endpoint: self.endpoint.clone(),
            incarnation: self.incarnation,
            state: self.state,
        }
    }
}

/// This node's view of the cluster membership.
pub struct MembershipTable {
    me: String,
    members: BTreeMap<String, MemberInfo>,
    quarantine: QuarantineTable,
    quarantine_ms: u64,
}

impl MembershipTable {
    pub fn new(
        me: impl Into<String>,
        endpoint: impl Into<String>,
        quarantine_ms: u64,
    ) -> MembershipTable {
        let me = me.into();
        let mut members = BTreeMap::new();
        members.insert(
            me.clone(),
            MemberInfo {
                name: me.clone(),
                endpoint: endpoint.into(),
                incarnation: 1,
                state: MemberState::Alive,
                since_ms: 0,
            },
        );
        MembershipTable {
            me,
            members,
            quarantine: QuarantineTable::new(),
            quarantine_ms,
        }
    }

    pub fn me(&self) -> &MemberInfo {
        // `new` inserts this node's own record, and no record is removed.
        self.members.get(&self.me).expect("self is always present")
    }

    pub fn my_name(&self) -> &str {
        &self.me
    }

    /// Record where this node actually listens (known only after the
    /// server binds its — possibly ephemeral — port).
    pub fn set_my_endpoint(&mut self, endpoint: impl Into<String>) {
        // Present: see `me`.
        let me = self.members.get_mut(&self.me).expect("self present");
        me.endpoint = endpoint.into();
    }

    pub fn incarnation(&self) -> u64 {
        self.me().incarnation
    }

    pub fn get(&self, name: &str) -> Option<&MemberInfo> {
        self.members.get(name)
    }

    /// Is `name` known and believed `Alive`?
    pub fn is_alive(&self, name: &str) -> bool {
        self.get(name)
            .is_some_and(|m| m.state == MemberState::Alive)
    }

    /// Every record, for gossip exchange (deterministic name order).
    pub fn entries(&self) -> Vec<MemberEntry> {
        self.members.values().map(MemberInfo::entry).collect()
    }

    /// Names in `state`, deterministic order.
    pub fn in_state(&self, state: MemberState) -> Vec<&MemberInfo> {
        self.members.values().filter(|m| m.state == state).collect()
    }

    pub fn count(&self, state: MemberState) -> usize {
        self.members.values().filter(|m| m.state == state).count()
    }

    /// Every name ever seen, whatever its state — the denominator for
    /// quorum ("strict majority of known member names").
    pub fn known_count(&self) -> usize {
        self.members.len()
    }

    /// Merge one gossiped record; returns `true` if anything changed.
    pub fn observe(&mut self, entry: &MemberEntry, now_ms: u64) -> bool {
        if entry.name == self.me {
            return self.observe_self(entry);
        }
        match self.members.get_mut(&entry.name) {
            None => {
                if entry.state == MemberState::Alive && !self.quarantine.admit(&entry.name, now_ms)
                {
                    return false;
                }
                self.members.insert(
                    entry.name.clone(),
                    MemberInfo {
                        name: entry.name.clone(),
                        endpoint: entry.endpoint.clone(),
                        incarnation: entry.incarnation,
                        state: entry.state,
                        since_ms: now_ms,
                    },
                );
                true
            }
            Some(existing) => {
                let fresher = entry.incarnation > existing.incarnation
                    || (entry.incarnation == existing.incarnation && entry.state > existing.state);
                if !fresher {
                    // Still take an endpoint update at equal belief: a
                    // restarted node reuses its incarnation bump to carry
                    // the new port.
                    if entry.incarnation == existing.incarnation
                        && entry.state == existing.state
                        && !entry.endpoint.is_empty()
                        && entry.endpoint != existing.endpoint
                    {
                        existing.endpoint = entry.endpoint.clone();
                        return true;
                    }
                    return false;
                }
                // A node coming back Alive must pass quarantine: the
                // bumped incarnation got it past merge precedence, but
                // only the elapsed cooldown re-admits it.
                let rejoining = entry.state == MemberState::Alive
                    && matches!(existing.state, MemberState::Dead | MemberState::Quarantined);
                if rejoining && !self.quarantine.admit(&entry.name, now_ms) {
                    return false;
                }
                // A death heard by rumour bars the name as one seen first
                // hand does: else this node, once coordinator, re-admits a
                // restarted peer before the cooldown its accuser started.
                if entry.state >= MemberState::Dead && existing.state < MemberState::Dead {
                    let until = now_ms + self.quarantine_ms;
                    self.quarantine.bar(&entry.name, entry.incarnation, until);
                }
                existing.incarnation = entry.incarnation;
                existing.state = entry.state;
                if !entry.endpoint.is_empty() {
                    existing.endpoint = entry.endpoint.clone();
                }
                existing.since_ms = now_ms;
                true
            }
        }
    }

    /// Gossip about *me*: refute anything graver than Alive at my
    /// incarnation or newer by bumping past it.
    fn observe_self(&mut self, entry: &MemberEntry) -> bool {
        let my_inc = self.incarnation();
        if entry.state > MemberState::Alive && entry.incarnation >= my_inc {
            // Present: see `me`.
            let me = self.members.get_mut(&self.me).expect("self present");
            me.incarnation = entry.incarnation + 1;
            me.state = MemberState::Alive;
            return true;
        }
        false
    }

    /// Local failure-detector verdict: push `name` down the lifecycle.
    /// Transitions to `Dead` start the quarantine cooldown. Returns
    /// `true` if the state actually changed.
    pub fn demote(&mut self, name: &str, to: MemberState, now_ms: u64) -> bool {
        if name == self.me {
            return false;
        }
        let quarantine_ms = self.quarantine_ms;
        let Some(m) = self.members.get_mut(name) else {
            return false;
        };
        if to <= m.state {
            return false;
        }
        m.state = to;
        m.since_ms = now_ms;
        if to >= MemberState::Dead {
            let incarnation = m.incarnation;
            self.quarantine
                .bar(name, incarnation, now_ms + quarantine_ms);
        }
        true
    }

    /// Housekeeping: expire quarantine bars and roll `Dead` records over
    /// to `Quarantined` while their bar is active (the gossiped state
    /// that tells the rest of the cluster "not yet").
    pub fn tick(&mut self, now_ms: u64) {
        for m in self.members.values_mut() {
            if m.state == MemberState::Dead && self.quarantine.is_barred(&m.name, now_ms) {
                m.state = MemberState::Quarantined;
                m.since_ms = now_ms;
            } else if m.state == MemberState::Quarantined
                && !self.quarantine.is_barred(&m.name, now_ms)
            {
                // Cooldown served; downgrade to plain Dead so an
                // unchanged-incarnation rejoin is possible again.
                m.state = MemberState::Dead;
                m.since_ms = now_ms;
            }
        }
        self.quarantine.sweep(now_ms);
    }

    pub fn quarantine(&self) -> &QuarantineTable {
        &self.quarantine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, inc: u64, state: MemberState) -> MemberEntry {
        MemberEntry {
            name: name.to_string(),
            endpoint: format!("{name}:1"),
            incarnation: inc,
            state,
        }
    }

    #[test]
    fn higher_incarnation_wins() {
        let mut t = MembershipTable::new("a", "a:1", 1_000);
        assert!(t.observe(&entry("b", 1, MemberState::Alive), 0));
        assert!(t.observe(&entry("b", 2, MemberState::Alive), 0));
        assert!(
            !t.observe(&entry("b", 1, MemberState::Dead), 0),
            "stale incarnation ignored even when graver"
        );
        assert_eq!(t.get("b").unwrap().incarnation, 2);
    }

    #[test]
    fn same_incarnation_graver_state_wins() {
        let mut t = MembershipTable::new("a", "a:1", 1_000);
        t.observe(&entry("b", 1, MemberState::Alive), 0);
        assert!(t.observe(&entry("b", 1, MemberState::Suspect), 0));
        assert!(
            !t.observe(&entry("b", 1, MemberState::Alive), 0),
            "cannot refute suspicion without a bump"
        );
        assert!(t.observe(&entry("b", 2, MemberState::Alive), 0));
        assert_eq!(t.get("b").unwrap().state, MemberState::Alive);
    }

    #[test]
    fn self_suspicion_is_refuted_by_bump() {
        let mut t = MembershipTable::new("a", "a:1", 1_000);
        assert_eq!(t.incarnation(), 1);
        assert!(t.observe(&entry("a", 1, MemberState::Suspect), 0));
        assert_eq!(t.incarnation(), 2);
        assert_eq!(t.me().state, MemberState::Alive);
        // A rumour about an even newer incarnation is leapfrogged too.
        assert!(t.observe(&entry("a", 7, MemberState::Dead), 0));
        assert_eq!(t.incarnation(), 8);
    }

    #[test]
    fn dead_rejoin_gated_by_quarantine() {
        let mut t = MembershipTable::new("a", "a:1", 1_000);
        t.observe(&entry("b", 3, MemberState::Alive), 0);
        assert!(t.demote("b", MemberState::Suspect, 10));
        assert!(t.demote("b", MemberState::Dead, 20));
        // Alive claims bounce until the cooldown (died at 20, bar to
        // 1020) — even with a bumped incarnation…
        assert!(!t.observe(&entry("b", 3, MemberState::Alive), 500));
        assert!(!t.observe(&entry("b", 4, MemberState::Alive), 600));
        // (tick rolls Dead into the gossiped Quarantined state)
        t.tick(700);
        assert_eq!(t.get("b").unwrap().state, MemberState::Quarantined);
        // …and the bumped incarnation re-admits once it has elapsed.
        assert!(t.observe(&entry("b", 4, MemberState::Alive), 1_020));
        assert_eq!(t.get("b").unwrap().state, MemberState::Alive);
    }

    #[test]
    fn cooldown_expiry_still_requires_a_bump() {
        let mut t = MembershipTable::new("a", "a:1", 1_000);
        t.observe(&entry("b", 3, MemberState::Alive), 0);
        t.demote("b", MemberState::Dead, 0);
        t.tick(100);
        assert_eq!(t.get("b").unwrap().state, MemberState::Quarantined);
        t.tick(1_000);
        assert_eq!(t.get("b").unwrap().state, MemberState::Dead);
        // Merge precedence: a same-incarnation alive claim never
        // resurrects a Dead record, cooldown or not.
        assert!(!t.observe(&entry("b", 3, MemberState::Alive), 1_001));
        assert!(t.observe(&entry("b", 4, MemberState::Alive), 1_001));
    }

    #[test]
    fn demote_never_targets_self_and_never_promotes() {
        let mut t = MembershipTable::new("a", "a:1", 1_000);
        assert!(!t.demote("a", MemberState::Dead, 0));
        t.observe(&entry("b", 1, MemberState::Dead), 0);
        assert!(!t.demote("b", MemberState::Suspect, 0));
    }
}
