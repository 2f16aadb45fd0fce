//! Property tests for the membership state machine. The SWIM merge rules
//! only keep a cluster convergent if they behave like a lattice join:
//! incarnations never run backwards, suspicion is refuted exclusively by
//! an incarnation bump, quarantine is a hard time gate no rumour can
//! tunnel through, and merging the same rumours in any order lands every
//! node on the same belief.

use proptest::prelude::*;

use rndi_cluster::{MemberEntry, MemberState, MembershipTable};

const QUARANTINE_MS: u64 = 1_000;

fn entry(name: &str, incarnation: u64, state: MemberState) -> MemberEntry {
    MemberEntry {
        name: name.to_string(),
        endpoint: format!("{name}:1"),
        incarnation,
        state,
    }
}

fn arb_state() -> impl Strategy<Value = MemberState> {
    prop_oneof![
        Just(MemberState::Alive),
        Just(MemberState::Suspect),
        Just(MemberState::Dead),
        Just(MemberState::Quarantined),
    ]
}

/// An arbitrary rumour about peer `b`: any incarnation, any state.
fn arb_rumour() -> impl Strategy<Value = MemberEntry> {
    (1u64..16, arb_state()).prop_map(|(inc, state)| entry("b", inc, state))
}

proptest! {
    /// A peer's stored incarnation never decreases, whatever rumours
    /// arrive in whatever order — stale news can never rewind a record.
    #[test]
    fn incarnation_is_monotone(rumours in proptest::collection::vec(arb_rumour(), 1..40)) {
        let mut t = MembershipTable::new("a", "a:1", QUARANTINE_MS);
        let mut high = 0u64;
        for (i, r) in rumours.iter().enumerate() {
            t.observe(r, i as u64);
            let now = t.get("b").map_or(0, |m| m.incarnation);
            prop_assert!(now >= high, "incarnation went {high} -> {now}");
            high = now;
        }
    }

    /// This node's own incarnation is monotone too: rumours about self
    /// either change nothing or force a refutation bump *past* them.
    #[test]
    fn self_incarnation_is_monotone_and_refutes(
        rumours in proptest::collection::vec((1u64..16, arb_state()), 1..40),
    ) {
        let mut t = MembershipTable::new("a", "a:1", QUARANTINE_MS);
        for (i, (inc, state)) in rumours.iter().enumerate() {
            let before = t.incarnation();
            t.observe(&entry("a", *inc, *state), i as u64);
            prop_assert!(t.incarnation() >= before);
            // Whatever was said, this node never believes itself down.
            prop_assert_eq!(t.me().state, MemberState::Alive);
            // A graver-than-Alive rumour at inc >= ours must be outranked.
            if *state > MemberState::Alive && *inc >= before {
                prop_assert!(t.incarnation() > *inc, "bump must leapfrog the rumour");
            }
        }
    }

    /// Once Suspect at incarnation `i`, no Alive claim at incarnation
    /// <= `i` restores Alive — refutation happens only via a bump.
    #[test]
    fn suspicion_refuted_only_by_bump(suspect_inc in 1u64..8, claim_inc in 1u64..16) {
        let mut t = MembershipTable::new("a", "a:1", QUARANTINE_MS);
        t.observe(&entry("b", suspect_inc, MemberState::Suspect), 0);
        t.observe(&entry("b", claim_inc, MemberState::Alive), 1);
        let m = t.get("b").expect("b is known");
        if claim_inc > suspect_inc {
            prop_assert_eq!(m.state, MemberState::Alive);
            prop_assert_eq!(m.incarnation, claim_inc);
        } else {
            prop_assert_eq!(m.state, MemberState::Suspect);
            prop_assert_eq!(m.incarnation, suspect_inc);
        }
    }

    /// Quarantine is strictly time-gated: after a local Dead verdict, no
    /// Alive claim lands before the cooldown expires — no matter how high
    /// its incarnation — and after the cooldown a claim lands exactly
    /// when it carries a strictly higher incarnation.
    #[test]
    fn quarantine_readmits_only_after_cooldown_and_bump(
        died_at in 0u64..500,
        claim_inc in 1u64..16,
        claim_delay in 0u64..3 * QUARANTINE_MS,
    ) {
        let mut t = MembershipTable::new("a", "a:1", QUARANTINE_MS);
        let dead_inc = 3u64;
        t.observe(&entry("b", dead_inc, MemberState::Alive), died_at);
        t.demote("b", MemberState::Dead, died_at);
        let claim_at = died_at + claim_delay;
        t.tick(claim_at);
        let admitted = t.observe(&entry("b", claim_inc, MemberState::Alive), claim_at);
        let cooled = claim_at >= died_at + QUARANTINE_MS;
        let bumped = claim_inc > dead_inc;
        prop_assert_eq!(
            admitted,
            cooled && bumped,
            "died_at={} claim_at={} inc {} vs {}: cooldown and bump are both required",
            died_at, claim_at, claim_inc, dead_inc
        );
        let expect = if cooled && bumped {
            MemberState::Alive
        } else if cooled {
            MemberState::Dead
        } else {
            MemberState::Quarantined
        };
        prop_assert_eq!(t.get("b").expect("known").state, expect);
    }

    /// Merge order independence: two nodes that hear the same rumours in
    /// different orders converge on the same `(incarnation, state)`
    /// belief. Gossip repeats itself, so each hears them twice: a claim of
    /// life that a rumoured death's quarantine held back lands on the
    /// hearing after the cooldown. (Endpoints are excluded: at equal belief
    /// the *latest* rumour's endpoint wins by design, to carry restarts to
    /// new ports.)
    #[test]
    fn merge_is_order_independent(
        rumours in proptest::collection::vec(arb_rumour(), 1..24),
        seed in 0u64..u64::MAX,
    ) {
        let hear_twice = |t: &mut MembershipTable, rumours: &[MemberEntry]| {
            for now in [0, QUARANTINE_MS] {
                t.tick(now);
                for r in rumours {
                    t.observe(r, now);
                }
            }
        };
        let mut forward = MembershipTable::new("a", "a:1", QUARANTINE_MS);
        hear_twice(&mut forward, &rumours);
        // A deterministic shuffle of the same rumours.
        let mut shuffled = rumours.clone();
        let mut s = seed | 1;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut backward = MembershipTable::new("a", "a:1", QUARANTINE_MS);
        hear_twice(&mut backward, &shuffled);
        let f = forward.get("b").expect("heard at least one rumour");
        let b = backward.get("b").expect("heard at least one rumour");
        prop_assert_eq!(f.incarnation, b.incarnation);
        prop_assert_eq!(f.state, b.state);
    }
}
