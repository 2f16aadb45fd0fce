//! The gossip engine: periodic anti-entropy over the membership table.
//!
//! Each round a node exchanges its full table (clusters here are tens of
//! nodes, not thousands — delta compression would be complexity without
//! a payoff) with every peer it believes reachable, piggybacking the
//! highest-sequence group **view** it knows. That piggyback is a safety
//! property, not an optimisation: liveness information never travels
//! without the view lineage, so a node healing from a partition cannot
//! learn "the others are back" without simultaneously learning that a
//! higher-sequence view exists — at which point it stops considering
//! itself a coordinator candidate and waits to be merged in.
//!
//! Every gossip contact doubles as a heartbeat into the per-peer
//! [`PhiFailureDetector`]; [`GossipEngine::tick`] turns accrued phi into
//! `Suspect` (≥ threshold) and `Dead` (≥ 2× threshold) demotions, which
//! then disseminate as rumours — to peers that have lost the subject too.

use std::collections::BTreeMap;

use rndi_net::proto::{GossipReply, GossipRequest, MemberEntry, MemberState, ViewSummary};

use crate::membership::MembershipTable;
use crate::phi::PhiFailureDetector;

/// Orders two view summaries: higher sequence wins; at equal sequence the
/// lexicographically smaller coordinator (first member) wins, so ties
/// resolve identically everywhere.
fn view_precedes(old: &ViewSummary, new: &ViewSummary) -> bool {
    if new.seq != old.seq {
        return new.seq > old.seq;
    }
    match (new.members.first(), old.members.first()) {
        (Some(n), Some(o)) => n < o,
        (Some(_), None) => true,
        _ => false,
    }
}

/// Dead/Quarantined peers are probed once every this many rounds (see
/// [`GossipEngine::gossip_targets`]).
const PROBE_EVERY: u64 = 8;

/// One node's gossip state.
pub struct GossipEngine {
    pub table: MembershipTable,
    phi: BTreeMap<String, PhiFailureDetector>,
    phi_threshold: f64,
    interval_ms: u64,
    /// Highest-precedence view heard anywhere (including installed
    /// locally); the lineage every coordinator decision anchors to.
    best_view: Option<ViewSummary>,
    /// Completed gossip rounds (exported as a counter).
    pub rounds: u64,
}

impl GossipEngine {
    pub fn new(table: MembershipTable, phi_threshold: f64, interval_ms: u64) -> GossipEngine {
        GossipEngine {
            table,
            phi: BTreeMap::new(),
            phi_threshold: phi_threshold.max(0.5),
            interval_ms: interval_ms.max(1),
            best_view: None,
            rounds: 0,
        }
    }

    /// The Sync request this node sends a peer.
    pub fn sync_request(&self) -> GossipRequest {
        GossipRequest::Sync {
            from: self.table.me().entry(),
            entries: self.table.entries(),
            view: self.best_view.clone(),
        }
    }

    /// Serve a peer's Sync: merge its table and view, heartbeat it, and
    /// answer with ours.
    pub fn handle_sync(
        &mut self,
        from: &MemberEntry,
        entries: &[MemberEntry],
        view: Option<&ViewSummary>,
        now_ms: u64,
    ) -> GossipReply {
        self.note_contact(&from.name, now_ms);
        self.merge(from, now_ms);
        for e in entries {
            self.merge(e, now_ms);
        }
        if let Some(v) = view {
            self.observe_view(v);
        }
        GossipReply::Sync {
            entries: self.table.entries(),
            view: self.best_view.clone(),
        }
    }

    /// Absorb the reply to a Sync we initiated. Only a substantive
    /// `Sync` reply counts as a heartbeat — a bare `Ack` proves a TCP
    /// path, not a cooperating peer.
    pub fn absorb_reply(&mut self, peer: &str, reply: &GossipReply, now_ms: u64) {
        if let GossipReply::Sync { entries, view } = reply {
            self.note_contact(peer, now_ms);
            for e in entries {
                self.merge(e, now_ms);
            }
            if let Some(v) = view {
                self.observe_view(v);
            }
        }
    }

    /// Merge one rumour, re-seeding the failure detector of any peer the
    /// merge brings (back) to `Alive`. A rumour of life carries no
    /// heartbeat, so without the reset the detector would still be
    /// scoring the silence that killed the peer in the first place and
    /// re-demote it on the next tick — a flap loop that churns views
    /// forever. Dropping the detector instead means phi stays 0 until
    /// the first *direct* contact restarts the clock.
    ///
    /// A third party's Suspect/Dead about a peer whose heartbeats still
    /// reach this node is somebody else's partition, not news: a minority
    /// healing back in holds the majority's members Dead, and a member
    /// adopting that would unseat its live coordinator and mint a rival
    /// view. The holder's probe of its subject refutes it at the source.
    fn merge(&mut self, entry: &MemberEntry, now_ms: u64) {
        let heard = |d: &PhiFailureDetector| d.phi(now_ms) < self.phi_threshold;
        if entry.state > MemberState::Alive && self.phi.get(&entry.name).is_some_and(heard) {
            return;
        }
        let before = self.table.get(&entry.name).map(|m| m.state);
        if !self.table.observe(entry, now_ms) {
            return;
        }
        let after = self.table.get(&entry.name).map(|m| m.state);
        if after == Some(MemberState::Alive) && before != Some(MemberState::Alive) {
            self.phi.remove(&entry.name);
        }
    }

    /// Record a heartbeat from `peer` (any authenticated contact counts:
    /// Sync either direction, or a group wire).
    pub fn note_contact(&mut self, peer: &str, now_ms: u64) {
        if peer == self.table.my_name() {
            return;
        }
        self.phi
            .entry(peer.to_string())
            .or_insert_with(|| PhiFailureDetector::new(self.interval_ms))
            .heartbeat(now_ms);
    }

    /// Fold a view (heard or installed) into the lineage.
    pub fn observe_view(&mut self, view: &ViewSummary) {
        match &self.best_view {
            Some(best) if !view_precedes(best, view) => {}
            _ => self.best_view = Some(view.clone()),
        }
    }

    pub fn best_view(&self) -> Option<&ViewSummary> {
        self.best_view.as_ref()
    }

    /// Largest phi across peers this node still counts on (diagnostics).
    pub fn max_phi(&self, now_ms: u64) -> f64 {
        self.phi
            .values()
            .map(|d| d.phi(now_ms))
            .fold(0.0_f64, f64::max)
    }

    /// One failure-detection pass: accrue suspicion into demotions.
    /// Returns the names whose state changed.
    pub fn tick(&mut self, now_ms: u64) -> Vec<String> {
        let mut changed = Vec::new();
        let verdicts: Vec<(String, MemberState)> = self
            .phi
            .iter()
            .filter_map(|(name, det)| {
                let phi = det.phi(now_ms);
                if phi >= 2.0 * self.phi_threshold {
                    Some((name.clone(), MemberState::Dead))
                } else if phi >= self.phi_threshold {
                    Some((name.clone(), MemberState::Suspect))
                } else {
                    None
                }
            })
            .collect();
        for (name, state) in verdicts {
            if self.table.demote(&name, state, now_ms) {
                changed.push(name);
            }
        }
        self.table.tick(now_ms);
        changed
    }

    /// Peers worth gossiping with this round: everyone not written off.
    /// Suspects stay included so they can refute. Dead / Quarantined
    /// peers get a probe every `PROBE_EVERY`th round — without it two
    /// sides of a healed partition would each hold the other Dead, never
    /// initiate contact, and stay split forever; the probe delivers the
    /// "you are Dead" rumour that triggers the peer's refutation bump.
    pub fn gossip_targets(&self) -> Vec<(String, String)> {
        let probe_round = self.rounds.is_multiple_of(PROBE_EVERY);
        self.table
            .entries()
            .into_iter()
            .filter(|e| {
                e.name != self.table.my_name()
                    && (probe_round || matches!(e.state, MemberState::Alive | MemberState::Suspect))
            })
            .map(|e| (e.name, e.endpoint))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(name: &str) -> GossipEngine {
        GossipEngine::new(
            MembershipTable::new(name, format!("{name}:1"), 1_000),
            8.0,
            25,
        )
    }

    fn exchange(a: &mut GossipEngine, b: &mut GossipEngine, now: u64) {
        let GossipRequest::Sync {
            from,
            entries,
            view,
        } = a.sync_request()
        else {
            unreachable!()
        };
        let reply = b.handle_sync(&from, &entries, view.as_ref(), now);
        let peer = b.table.my_name().to_string();
        a.absorb_reply(&peer, &reply, now);
    }

    #[test]
    fn sync_converges_two_tables() {
        let mut a = engine("a");
        let mut b = engine("b");
        exchange(&mut a, &mut b, 10);
        assert_eq!(a.table.known_count(), 2);
        assert_eq!(b.table.known_count(), 2);
        assert_eq!(a.table.get("b").unwrap().endpoint, "b:1");
    }

    #[test]
    fn silence_accrues_to_suspect_then_dead() {
        let mut a = engine("a");
        let mut b = engine("b");
        for i in 0..10 {
            exchange(&mut a, &mut b, 10 + i * 25);
        }
        assert!(a.tick(260).is_empty(), "fresh contact: no demotion");
        // Silence: phi crosses threshold, then 2× threshold.
        // Mean interval 25ms: threshold 8 crosses at ~460ms of silence,
        // 2× threshold at ~921ms.
        let suspect_at = 235 + 500;
        let changed = a.tick(suspect_at);
        assert_eq!(changed, vec!["b".to_string()]);
        assert_eq!(a.table.get("b").unwrap().state, MemberState::Suspect);
        let dead_at = 235 + 1_000;
        a.tick(dead_at);
        assert!(a.table.get("b").unwrap().state >= MemberState::Dead);
    }

    #[test]
    fn view_lineage_prefers_higher_seq_then_smaller_coord() {
        let mut a = engine("a");
        a.observe_view(&ViewSummary {
            seq: 3,
            members: vec!["b".into()],
        });
        a.observe_view(&ViewSummary {
            seq: 2,
            members: vec!["a".into()],
        });
        assert_eq!(a.best_view().unwrap().seq, 3);
        a.observe_view(&ViewSummary {
            seq: 3,
            members: vec!["a".into()],
        });
        assert_eq!(a.best_view().unwrap().members[0], "a");
        a.observe_view(&ViewSummary {
            seq: 4,
            members: vec!["z".into()],
        });
        assert_eq!(a.best_view().unwrap().seq, 4);
    }

    #[test]
    fn gossip_targets_skip_dead_except_on_probe_rounds() {
        let mut a = engine("a");
        let mut b = engine("b");
        exchange(&mut a, &mut b, 10);
        a.rounds = 1;
        assert_eq!(a.gossip_targets(), vec![("b".into(), "b:1".into())]);
        a.table.demote("b", MemberState::Dead, 20);
        assert!(a.gossip_targets().is_empty(), "dead peers skipped");
        a.rounds = 2 * PROBE_EVERY;
        assert_eq!(
            a.gossip_targets(),
            vec![("b".into(), "b:1".into())],
            "probe rounds reach dead peers so a healed side can refute"
        );
    }
}
