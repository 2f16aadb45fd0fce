//! The view bridge: turning converged gossip beliefs into group views.
//!
//! The membership plane *believes*; the group layer *decides*. This
//! module is the one-way valve between them: when gossip has settled on
//! a changed alive-set, the (unique) coordinator candidate mints the next
//! [`View`] in the lineage and the existing groupcast machinery —
//! sequencer reset, state transfer to newcomers, PRIMARY_PARTITION
//! resync — runs unchanged on top, exactly as it does over the simnet.
//!
//! Two rules keep split brain out:
//!
//! * **Candidate uniqueness.** The only node allowed to propose is the
//!   first *alive* member of the highest-precedence view it knows
//!   (JGroups' "oldest member coordinates", survived by lineage). Because
//!   gossip always piggybacks that view, any node that can hear rumours
//!   at all also hears the lineage and either is the candidate or defers.
//! * **Quorum.** A candidate only installs a view in which a **strict
//!   majority of all known member names** — dead or alive — is `Alive`
//!   (a member kept while merely Suspect lends no vote). A minority
//!   partition therefore freezes on its last view (and, via
//!   [`quorum_holds`], refuses writes) instead of electing a rump
//!   coordinator; the majority side advances the lineage and absorbs the
//!   minority back as state-transfer newcomers on heal.

use crate::msg::{MemberState, ViewSummary};
use groupcast::{Addr, View};

use crate::gossip::GossipEngine;

/// Deterministic name → group address mapping (FNV-1a 64). Every node
/// computes the same `Addr` for the same name, so group wires address
/// members without any registration handshake.
pub fn addr_of(name: &str) -> Addr {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // The simnet reserves tiny addresses for its numbered members; keep
    // hashed addresses clear of 0 (unused sentinel in diagnostics).
    Addr(h | 1)
}

/// A view to install, with its rendering in names for gossip (same seq,
/// same order; the Addr mapping of record is [`addr_of`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proposal {
    pub view: View,
    pub summary: ViewSummary,
}

/// Is `name` the coordinator candidate for the lineage `engine` knows?
///
/// With no lineage at all only the designated seed bootstraps (the
/// caller's concern); once any view exists, the candidate is its first
/// member that the local table still believes alive — falling back to
/// the smallest alive known name if *no* lineage member survives.
pub fn is_candidate(engine: &GossipEngine, name: &str) -> bool {
    match engine.best_view() {
        None => false,
        Some(vs) => match vs.members.iter().find(|m| engine.table.is_alive(m)) {
            Some(first) => first == name,
            None => engine
                .table
                .in_state(MemberState::Alive)
                .first()
                .is_some_and(|m| m.name == name),
        },
    }
}

/// The membership the next view should hold: lineage survivors first (in
/// lineage order — seniority is what elects coordinators), then alive
/// newcomers in name order.
///
/// Lineage members are kept while merely `Suspect`: suspicion is a
/// transient verdict that a refutation routinely reverses, and excising
/// on it would mint a view change for every network hiccup. Only `Dead`
/// (the phi detector's final word) drops a member — which is also why
/// newcomers must be fully `Alive` to get in.
fn desired_members(engine: &GossipEngine) -> Vec<String> {
    let in_view_worthy = |n: &str| {
        engine
            .table
            .get(n)
            .is_some_and(|m| m.state <= MemberState::Suspect)
    };
    let mut desired: Vec<String> = match engine.best_view() {
        Some(vs) => vs
            .members
            .iter()
            .filter(|m| in_view_worthy(m))
            .cloned()
            .collect(),
        None => Vec::new(),
    };
    for m in engine.table.in_state(MemberState::Alive) {
        if !desired.iter().any(|d| d == &m.name) {
            desired.push(m.name.clone());
        }
    }
    desired
}

/// Does `members` hold a strict majority of every name the table knows,
/// counting only those believed `Alive`? A lineage member kept while
/// `Suspect` keeps its place in the view but lends no vote: a coordinator
/// being cut off sees its peers die one by one, and must not mint a view
/// on the strength of the ones it merely has not written off yet — the
/// far side mints the same seq.
pub fn quorum_holds<'a>(engine: &GossipEngine, members: impl IntoIterator<Item = &'a str>) -> bool {
    let alive = members.into_iter().filter(|n| engine.table.is_alive(n));
    alive.count() * 2 > engine.table.known_count()
}

/// Decide whether this node should install a new view now. `me` must be
/// this node's name. Returns `None` when the lineage view already
/// matches the desired membership, this node is not the candidate, or
/// quorum is lacking.
pub fn propose(engine: &GossipEngine, me: &str) -> Option<Proposal> {
    if !is_candidate(engine, me) {
        return None;
    }
    let desired = desired_members(engine);
    if desired.is_empty() || !quorum_holds(engine, desired.iter().map(String::as_str)) {
        return None;
    }
    let current = engine.best_view()?;
    if current.members == desired {
        return None;
    }
    let seq = current.seq + 1;
    Some(Proposal {
        view: View::new(seq, desired.iter().map(|n| addr_of(n)).collect()),
        summary: ViewSummary {
            seq,
            members: desired,
        },
    })
}

/// The bootstrap view a seed node (no lineage anywhere) starts from.
pub fn bootstrap(me: &str) -> Proposal {
    Proposal {
        view: View::new(1, vec![addr_of(me)]),
        summary: ViewSummary {
            seq: 1,
            members: vec![me.to_string()],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipTable;
    use crate::msg::MemberEntry;

    fn engine_with(me: &str, peers: &[(&str, MemberState)]) -> GossipEngine {
        let mut e = GossipEngine::new(MembershipTable::new(me, format!("{me}:1"), 1_000), 8.0, 25);
        for (name, state) in peers {
            e.table.observe(
                &MemberEntry {
                    name: name.to_string(),
                    endpoint: format!("{name}:1"),
                    incarnation: 1,
                    state: MemberState::Alive,
                },
                0,
            );
            if *state != MemberState::Alive {
                e.table.demote(name, *state, 0);
            }
        }
        e
    }

    #[test]
    fn addr_mapping_is_stable_and_distinct() {
        assert_eq!(addr_of("node-0"), addr_of("node-0"));
        assert_ne!(addr_of("node-0"), addr_of("node-1"));
    }

    #[test]
    fn no_lineage_no_candidate() {
        let e = engine_with("a", &[("b", MemberState::Alive)]);
        assert!(!is_candidate(&e, "a"));
        assert!(propose(&e, "a").is_none());
    }

    #[test]
    fn candidate_is_first_alive_lineage_member() {
        let mut e = engine_with("b", &[("a", MemberState::Dead), ("c", MemberState::Alive)]);
        e.observe_view(&ViewSummary {
            seq: 5,
            members: vec!["a".into(), "b".into(), "c".into()],
        });
        assert!(!is_candidate(&e, "a"), "dead lineage head skipped");
        assert!(is_candidate(&e, "b"));
        assert!(!is_candidate(&e, "c"));
        let p = propose(&e, "b").expect("membership changed");
        assert_eq!(p.summary.members, vec!["b".to_string(), "c".to_string()]);
        assert_eq!(p.view.id.seq, 6);
        assert_eq!(p.view.coordinator(), addr_of("b"));
    }

    #[test]
    fn minority_refuses_to_propose() {
        // 5 known names, only 2 alive on this side: no quorum, though the
        // peers not yet written off would still fill a 4-member view (the
        // far side is minting the same seq).
        let mut e = engine_with(
            "a",
            &[
                ("b", MemberState::Alive),
                ("c", MemberState::Dead),
                ("d", MemberState::Suspect),
                ("e", MemberState::Suspect),
            ],
        );
        e.observe_view(&ViewSummary {
            seq: 2,
            members: vec!["a".into(), "b".into(), "c".into(), "d".into(), "e".into()],
        });
        assert!(is_candidate(&e, "a"));
        assert!(propose(&e, "a").is_none(), "2 of 5 is not a quorum");
        assert!(!quorum_holds(&e, ["a", "b"]));
    }

    #[test]
    fn majority_advances_the_lineage() {
        let mut e = engine_with(
            "a",
            &[
                ("b", MemberState::Alive),
                ("c", MemberState::Alive),
                ("d", MemberState::Dead),
                ("e", MemberState::Dead),
            ],
        );
        e.observe_view(&ViewSummary {
            seq: 2,
            members: vec!["a".into(), "b".into(), "c".into(), "d".into(), "e".into()],
        });
        let p = propose(&e, "a").expect("3 of 5 is a quorum");
        assert_eq!(
            p.summary.members,
            vec!["a".to_string(), "b".into(), "c".into()]
        );
        assert_eq!(p.view.id.seq, 3);
    }

    #[test]
    fn settled_view_proposes_nothing() {
        let mut e = engine_with("a", &[("b", MemberState::Alive)]);
        e.observe_view(&ViewSummary {
            seq: 4,
            members: vec!["a".into(), "b".into()],
        });
        assert!(propose(&e, "a").is_none());
    }

    #[test]
    fn newcomers_append_after_lineage_survivors() {
        let mut e = engine_with("a", &[("z", MemberState::Alive), ("b", MemberState::Alive)]);
        e.observe_view(&ViewSummary {
            seq: 1,
            members: vec!["a".into()],
        });
        let p = propose(&e, "a").expect("two newcomers");
        assert_eq!(
            p.summary.members,
            vec!["a".to_string(), "b".into(), "z".into()],
            "lineage first, then name order"
        );
    }
}
