//! Chaos testing: randomized fault schedules against an HDNS realm.
//!
//! Interleaves writes (from random replicas) with crashes, restarts,
//! partitions and heals; at the end, heals everything, restarts every
//! replica, and asserts all replicas hold byte-identical stores — the
//! paper's §4 resilience claims under adversarial schedules rather than
//! the hand-picked scenarios of the unit tests.

use proptest::prelude::*;

use rndi::groupcast::StackConfig;
use rndi::hdns::{HdnsEntry, HdnsRealm};

const REPLICAS: usize = 3;

#[derive(Clone, Debug)]
enum ChaosEvent {
    /// Bind/rebind `key` via replica `node` (ignored if that node is down).
    Write {
        node: u8,
        key: u8,
        val: u8,
    },
    Unbind {
        node: u8,
        key: u8,
    },
    Crash {
        node: u8,
    },
    Restart {
        node: u8,
    },
    /// Isolate one replica from the other two.
    Isolate {
        node: u8,
    },
    Heal,
}

fn event_strategy() -> impl Strategy<Value = ChaosEvent> {
    prop_oneof![
        5 => (0u8..REPLICAS as u8, 0u8..6, any::<u8>())
            .prop_map(|(node, key, val)| ChaosEvent::Write { node, key, val }),
        2 => (0u8..REPLICAS as u8, 0u8..6)
            .prop_map(|(node, key)| ChaosEvent::Unbind { node, key }),
        1 => (0u8..REPLICAS as u8).prop_map(|node| ChaosEvent::Crash { node }),
        1 => (0u8..REPLICAS as u8).prop_map(|node| ChaosEvent::Restart { node }),
        1 => (0u8..REPLICAS as u8).prop_map(|node| ChaosEvent::Isolate { node }),
        1 => Just(ChaosEvent::Heal),
    ]
}

fn alive_count(realm: &HdnsRealm) -> usize {
    (0..REPLICAS).filter(|i| realm.is_alive(*i)).count()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case runs a full replicated deployment
        ..ProptestConfig::default()
    })]

    #[test]
    fn replicas_converge_after_arbitrary_fault_schedules(
        seed in 0u64..1_000_000,
        events in proptest::collection::vec(event_strategy(), 1..30)
    ) {
        let realm = HdnsRealm::new("chaos", REPLICAS, StackConfig::default(), None, seed);
        let mut down = [false; REPLICAS];
        let mut isolated: Option<usize> = None;

        for ev in &events {
            match ev {
                ChaosEvent::Write { node, key, val } => {
                    let node = *node as usize;
                    if !down[node] {
                        // May legitimately fail (e.g. conflicting bind);
                        // only the final convergence matters.
                        let _ = realm.rebind(
                            node,
                            &format!("k{key}"),
                            HdnsEntry::leaf(vec![*val]),
                        );
                    }
                }
                ChaosEvent::Unbind { node, key } => {
                    let node = *node as usize;
                    if !down[node] {
                        let _ = realm.unbind(node, &format!("k{key}"));
                    }
                }
                ChaosEvent::Crash { node } => {
                    let node = *node as usize;
                    // Keep at least one replica alive so the group survives.
                    if !down[node] && alive_count(&realm) > 1 {
                        realm.crash(node);
                        down[node] = true;
                        if isolated == Some(node) {
                            isolated = None;
                        }
                    }
                }
                ChaosEvent::Restart { node } => {
                    let node = *node as usize;
                    if down[node] {
                        realm.restart(node);
                        down[node] = false;
                    }
                }
                ChaosEvent::Isolate { node } => {
                    let node = *node as usize;
                    if !down[node] && isolated.is_none() {
                        let others: Vec<usize> =
                            (0..REPLICAS).filter(|i| *i != node).collect();
                        realm.partition(&[&others, &[node]]);
                        isolated = Some(node);
                    }
                }
                ChaosEvent::Heal => {
                    realm.heal();
                    isolated = None;
                }
            }
        }

        // Recovery phase: heal everything and bring every replica back.
        realm.heal();
        for (node, is_down) in down.iter().enumerate() {
            if *is_down {
                realm.restart(node);
            }
        }
        realm.drive();

        // Convergence: every replica's store is byte-identical.
        let reference = realm.store_snapshot(0);
        for node in 1..REPLICAS {
            let snap = realm.store_snapshot(node);
            prop_assert_eq!(
                &snap,
                &reference,
                "replica {} diverged after {:?}",
                node,
                events
            );
        }

        // And the realm still works: a fresh write lands everywhere.
        realm
            .rebind(0, "final", HdnsEntry::leaf(vec![99]))
            .expect("post-chaos write succeeds");
        for node in 0..REPLICAS {
            prop_assert_eq!(
                realm.lookup(node, "final").map(|e| e.value().to_vec()),
                Some(vec![99]),
                "replica {} serves the post-chaos write",
                node
            );
        }
    }
}
