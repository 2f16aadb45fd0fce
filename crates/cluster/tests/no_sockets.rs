//! Staged races in the production cluster logic, with no sockets, threads
//! or wall clock (the harness is `sim/mod.rs`).
//!
//! Three nodes boot, split and heal under membership-frame loss on 64
//! seeds; beside that run, the races that real sockets used to find by luck
//! are staged link by link and step by step, each failing without the rule
//! that closes it.

mod sim;

use hdns::RealmError;
use rndi_cluster::{GossipEngine, MembershipTable};
use rndi_net::proto::{MemberEntry, MemberState};
use sim::{Sim, INTERVAL_MS, LOSSY, RELIABLE};

fn boot_partition_heal(seed: u64) {
    let mut net = Sim::boot(3, seed, LOSSY);
    let ack = |net: &mut Sim, i: usize, path: &str| {
        net.write(i, path)
            .unwrap_or_else(|e| panic!("{path} via node-{i}: {e}"));
    };

    net.run_until("boot from the seed", |n| n.converged(&[0, 1, 2]));
    ack(&mut net, 0, "before-at-coordinator");
    ack(&mut net, 2, "before-at-member");

    // The harder cut: the coordinator ends up alone.
    net.cut(&[0], &[1, 2]);
    net.run_until("the majority re-forms, the minority refuses", |n| {
        n.converged(&[1, 2]) && !n.node(0).state.lock().writes_allowed()
    });
    assert_eq!(
        net.write(0, "during-at-minority"),
        Err(RealmError::NotPrimary)
    );
    ack(&mut net, 1, "during-at-coordinator");
    ack(&mut net, 2, "during-at-member");

    net.heal();
    net.run_until("one lineage after the heal", |n| n.converged(&[0, 1, 2]));
    ack(&mut net, 0, "after-at-rejoined");
    let acked = net.acked();
    net.run_until("every replica holds every acknowledged write", |n| {
        (0..3).all(|i| acked.iter().all(|path| n.holds(i, path)))
    });
    let lineage = net.members(0);
    for i in 0..3 {
        assert_eq!(net.members(i), lineage);
        assert_eq!(net.seq(i), net.seq(0), "one view, one seq");
    }
    net.check_writes();
}

/// The heal-order race, staged: a minority heals back in still holding the
/// majority's members Dead, and reaches one of them while that member and
/// its coordinator miss each other for a few rounds — far too few to
/// suspect anybody. Adopting the rumour would make that member the
/// candidate, and with the healed node's vote it would mint a rival view.
#[test]
fn a_healing_minoritys_death_rumour_does_not_unseat_the_coordinator() {
    let mut net = Sim::boot(3, 0, RELIABLE);
    net.run_until("boot from the seed", |n| n.converged(&[0, 1, 2]));
    net.cut(&[0], &[1, 2]);
    net.run_until("the majority re-forms", |n| n.converged(&[1, 2]));
    // Every quarantine bar lapses: only the protocol's rules are left
    // between a rumour and a view.
    for _ in 0..60 {
        net.round();
    }
    let lineage = net.members(2);
    assert_eq!(lineage, ["node-1", "node-2"]);

    net.heal();
    net.cut(&[0], &[1]);
    net.cut(&[1], &[2]);
    for _ in 0..12 {
        net.round();
        assert_eq!(net.members(2), lineage, "node-2 left its coordinator");
    }
    assert_eq!(
        net.belief(2, "node-0"),
        Some(MemberState::Alive),
        "node-0 did get through to node-2"
    );
    assert_eq!(
        net.belief(2, "node-1"),
        Some(MemberState::Alive),
        "a rumour outweighed heartbeats"
    );

    net.heal();
    net.run_until("one lineage after the heal", |n| n.converged(&[0, 1, 2]));
    assert_eq!(net.members(0), ["node-1", "node-2", "node-0"]);
}

#[test]
fn three_nodes_boot_split_and_heal_under_membership_frame_loss() {
    for seed in 0..64 {
        if let Err(panic) = std::panic::catch_unwind(|| boot_partition_heal(seed)) {
            eprintln!("no_sockets: failing seed = {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A write at the coordinator in the instant after it admitted a joiner:
/// the joiner has the view, the coordinator's replica has not yet come round
/// to answering its state request. The snapshot must not be queued behind
/// the write's `Ordered` copy, or the joiner applies the write and then
/// installs a snapshot taken before it.
#[test]
fn a_write_right_behind_a_view_does_not_overtake_the_joiners_snapshot() {
    let mut net = Sim::boot(3, 0, RELIABLE);
    loop {
        net.carry(0);
        if net.members(1).len() > 1 {
            break; // node-1 just installed the view admitting it
        }
        net.pump(0);
        for i in 1..3 {
            net.carry(i);
            net.pump(i);
        }
        net.tick();
    }
    net.write(0, "right-behind-the-view").unwrap();
    net.run_until("boot from the seed", |n| n.converged(&[0, 1, 2]));
    net.round();
    for i in 0..3 {
        assert!(net.holds(i, "right-behind-the-view"), "lost on node-{i}");
    }
}

/// The rule the staged heal above leans on, by itself: heartbeats outweigh
/// a third party's verdict, silence lets it in.
#[test]
fn a_verdict_on_a_peer_still_heard_waits_for_silence() {
    let entry = |name: &str, state| MemberEntry {
        name: name.to_string(),
        endpoint: format!("{name}:1"),
        incarnation: 1,
        state,
    };
    let table = MembershipTable::new("a", "a:1", 400);
    let mut a = GossipEngine::new(table, 8.0, INTERVAL_MS);
    for round in 0..5 {
        let b = entry("b", MemberState::Alive);
        a.handle_sync(&b, &[], None, round * INTERVAL_MS);
    }
    let state_of_b = |a: &GossipEngine| a.table.get("b").unwrap().state;
    let rumour = [entry("b", MemberState::Dead)];

    a.handle_sync(&entry("c", MemberState::Alive), &rumour, None, 50);
    assert_eq!(state_of_b(&a), MemberState::Alive, "b was heard 10 ms ago");

    // 20 intervals of silence: a's own detector suspects b (phi 8.7).
    a.tick(240);
    assert_eq!(state_of_b(&a), MemberState::Suspect);
    a.handle_sync(&entry("c", MemberState::Alive), &rumour, None, 240);
    assert_eq!(state_of_b(&a), MemberState::Dead);
}
