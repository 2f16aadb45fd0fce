//! HDNS fault-tolerance scenarios exercised through the provider layer:
//! the paper's §4.1 recovery guarantees observed from the client API.

use rndi::core::context::ContextExt;
use rndi::core::prelude::*;
use rndi::groupcast::{OrderingMode, StackConfig};
use rndi::hdns::HdnsRealm;
use rndi::providers::HdnsProviderContext;

/// A data directory of this test's own, removed when the guard drops.
struct DataDir(std::path::PathBuf);

impl DataDir {
    fn new(tag: &str) -> DataDir {
        let dir = std::env::temp_dir().join(format!("rndi-failover-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DataDir(dir)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn realm(tag: &str, data_dir: Option<&DataDir>) -> HdnsRealm {
    let dir = data_dir.map(|d| d.0.clone());
    HdnsRealm::new(tag, 3, StackConfig::default(), dir, 101)
}

#[test]
fn client_fails_over_to_surviving_replica() {
    let realm = realm("failover", None);
    let ctx0 = HdnsProviderContext::new(realm.clone(), 0, "t");
    let ctx1 = HdnsProviderContext::new(realm.clone(), 1, "t");

    ctx0.bind_str("service", "v").unwrap();
    realm.crash(0);

    // The paper's "nearest node" model: clients re-resolve to a live
    // replica and keep both reading and writing.
    assert_eq!(ctx1.lookup_str("service").unwrap().as_str(), Some("v"));
    ctx1.bind_str("after-crash", "w").unwrap();
    assert_eq!(ctx1.lookup_str("after-crash").unwrap().as_str(), Some("w"));
}

/// A server answering `Timeout` reads it as its own overload and sheds
/// unrelated calls; a write stuck behind the sequencer is not that.
#[test]
fn a_write_given_up_on_is_a_service_failure_not_a_timeout() {
    let realm = realm("given-up", None);
    let ctx1 = HdnsProviderContext::new(realm.clone(), 1, "t");
    // Cut replica 1 off before any failure detector runs: its forward to
    // the coordinator is dropped and the write never comes back ordered.
    realm.cluster().partition(&[&[realm.addr(1)]]);
    assert!(matches!(
        ctx1.rebind_str("k", "v"),
        Err(NamingError::ServiceFailure { detail }) if detail.contains("not ordered")
    ));
}

#[test]
fn restarted_replica_serves_missed_writes() {
    let realm = realm("rejoin", None);
    let ctx2 = HdnsProviderContext::new(realm.clone(), 2, "t");
    let ctx0 = HdnsProviderContext::new(realm.clone(), 0, "t");

    realm.crash(2);
    ctx0.bind_str("missed", "by-2").unwrap();
    realm.restart(2);

    assert_eq!(
        ctx2.lookup_str("missed").unwrap().as_str(),
        Some("by-2"),
        "state transfer brought the rejoiner current"
    );
}

#[test]
fn primary_partition_discards_minority_writes_via_provider() {
    let realm = realm("primary", None);
    let majority = HdnsProviderContext::new(realm.clone(), 0, "t");
    let minority = HdnsProviderContext::new(realm.clone(), 2, "t");

    realm.partition(&[&[0, 1], &[2]]);
    majority.bind_str("winner", "1").unwrap();
    minority.bind_str("loser", "2").unwrap();
    realm.heal();

    for ctx in [&majority, &minority] {
        assert_eq!(ctx.lookup_str("winner").unwrap().as_str(), Some("1"));
        assert!(ctx.lookup_str("loser").is_err(), "divergent write dropped");
    }
}

#[test]
fn conflicting_binds_across_a_partition_resolve_deterministically() {
    let realm = realm("conflict", None);
    let a = HdnsProviderContext::new(realm.clone(), 0, "t");
    let b = HdnsProviderContext::new(realm.clone(), 2, "t");

    realm.partition(&[&[0, 1], &[2]]);
    a.bind_str("same-key", "majority").unwrap();
    b.bind_str("same-key", "minority").unwrap();
    realm.heal();

    // PRIMARY_PARTITION: the majority's lineage wins everywhere.
    for (i, ctx) in [&a, &b].into_iter().enumerate() {
        assert_eq!(
            ctx.lookup_str("same-key").unwrap().as_str(),
            Some("majority"),
            "replica path {i}"
        );
    }
}

#[test]
fn full_shutdown_recovers_from_disk_snapshots() {
    let dir = DataDir::new("persist");
    let r = realm("persist", Some(&dir));
    {
        let ctx = HdnsProviderContext::new(r.clone(), 0, "t");
        ctx.bind_str("durable", "gold").unwrap();
        r.shutdown_replica(0);
        r.shutdown_replica(1);
        r.shutdown_replica(2);
    }
    drop(r);

    let revived = HdnsRealm::new(
        "persist",
        3,
        StackConfig::default(),
        Some(dir.0.clone()),
        202,
    );
    let ctx = HdnsProviderContext::new(revived, 1, "t");
    assert_eq!(ctx.lookup_str("durable").unwrap().as_str(), Some("gold"));
}

/// No `shutdown_replica`, no compaction: the realm is simply dropped, the
/// way a killed process leaves it. Every acknowledged write is in some
/// replica's op log, so a realm revived over the same directory has them
/// all — not just those up to the last snapshot.
#[test]
fn unclean_stop_loses_no_acknowledged_write() {
    let dir = DataDir::new("unclean");
    let r = realm("unclean", Some(&dir));
    let ctx = HdnsProviderContext::new(r.clone(), 0, "t");
    for i in 0..150 {
        ctx.bind_str(&format!("name-{i}"), format!("value-{i}"))
            .unwrap();
    }
    drop(ctx);
    drop(r);

    let revived = HdnsRealm::new(
        "unclean",
        3,
        StackConfig::default(),
        Some(dir.0.clone()),
        202,
    );
    for node in 0..3 {
        let ctx = HdnsProviderContext::new(revived.clone(), node, "t");
        for i in 0..150 {
            assert_eq!(
                ctx.lookup_str(&format!("name-{i}")).unwrap().as_str(),
                Some(format!("value-{i}").as_str()),
                "replica {node}, name-{i}"
            );
        }
    }
}

#[test]
fn bimodal_stack_survives_lossy_network() {
    let realm = HdnsRealm::new(
        "lossy",
        3,
        StackConfig {
            ordering: OrderingMode::Bimodal {
                loss: 0.25,
                fanout: 2,
            },
            ..Default::default()
        },
        None,
        77,
    );
    let ctx = HdnsProviderContext::new(realm.clone(), 0, "t");
    for i in 0..20 {
        ctx.rebind_str(&format!("k{i}"), format!("v{i}")).unwrap();
    }
    // Every replica converged despite 25% initial loss (gossip repaired).
    for node in 0..3 {
        for i in 0..20 {
            assert_eq!(
                realm
                    .lookup(node, &format!("k{i}"))
                    .map(|e| String::from_utf8_lossy(e.value()).to_string()),
                realm
                    .lookup(0, &format!("k{i}"))
                    .map(|e| String::from_utf8_lossy(e.value()).to_string()),
                "node {node} key k{i}"
            );
        }
    }
}

#[test]
fn events_report_remote_writes() {
    let realm = realm("events", None);
    let watcher = HdnsProviderContext::new(realm.clone(), 1, "t");
    let writer = HdnsProviderContext::new(realm, 0, "t");

    let listener = CollectingListener::new();
    watcher
        .add_listener(&CompositeName::empty(), listener.clone())
        .unwrap();

    writer.bind_str("announced", "v").unwrap();
    watcher.poll_events();
    let events = listener.drain();
    assert!(
        events
            .iter()
            .any(|e| e.event_type == EventType::ObjectAdded && e.name.to_string() == "announced"),
        "got {events:?}"
    );
}
