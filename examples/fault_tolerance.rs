//! HDNS fault tolerance (paper §4.1): crash/restart recovery, disk
//! persistence across a complete shutdown — clean or not — and
//! network-partition healing via the PRIMARY_PARTITION protocol.
//!
//! Run with: `cargo run --example fault_tolerance`

use rndi::groupcast::StackConfig;
use rndi::hdns::{HdnsEntry, HdnsEvent, HdnsRealm};

fn main() {
    let data_dir = std::env::temp_dir().join("rndi-fault-tolerance-example");
    let _ = std::fs::remove_dir_all(&data_dir);

    // Three replicas, each keeping a snapshot and an op log under data_dir.
    let realm = HdnsRealm::new(
        "ft-demo",
        3,
        StackConfig::default(),
        Some(data_dir.clone()),
        2026,
    );

    println!("== normal operation ==");
    realm
        .bind(0, "svc-a", HdnsEntry::leaf(b"alpha".to_vec()))
        .unwrap();
    realm
        .bind(1, "svc-b", HdnsEntry::leaf(b"beta".to_vec()))
        .unwrap();
    for i in 0..3 {
        assert_eq!(realm.lookup(i, "svc-a").unwrap().value(), b"alpha");
    }
    println!("writes via different replicas visible everywhere: OK");

    println!("== crash & re-join ==");
    realm.crash(2);
    assert!(!realm.is_alive(2));
    // Service continues; writes land on the survivors.
    realm
        .bind(0, "svc-c", HdnsEntry::leaf(b"gamma".to_vec()))
        .unwrap();
    realm.restart(2);
    assert!(realm.is_alive(2));
    assert_eq!(
        realm.lookup(2, "svc-c").unwrap().value(),
        b"gamma",
        "rejoined replica caught up via state transfer"
    );
    println!("crashed replica re-joined and re-synchronized: OK");

    println!("== network partition & PRIMARY_PARTITION ==");
    // Isolate replica 2; both sides keep answering reads and accepting
    // writes (availability over consistency during the partition).
    realm.partition(&[&[0, 1], &[2]]);
    realm
        .bind(0, "written-by-majority", HdnsEntry::leaf(b"keep".to_vec()))
        .unwrap();
    realm
        .bind(2, "written-by-minority", HdnsEntry::leaf(b"drop".to_vec()))
        .unwrap();
    println!("both sides accepted writes while partitioned");

    realm.heal();
    // "The PRIMARY PARTITION protocol resolves state conflicts by uniquely
    // selecting the partition deemed to have the valid state, and forcing
    // other partitions to re-synchronize."
    for i in 0..3 {
        assert!(realm.lookup(i, "written-by-majority").is_some());
        assert!(
            realm.lookup(i, "written-by-minority").is_none(),
            "divergent minority write discarded on replica {i}"
        );
    }
    let resynced = realm
        .take_events(2)
        .into_iter()
        .any(|e| e == HdnsEvent::Resynced);
    assert!(resynced, "loser side re-synchronized");
    println!("partition healed; minority side forced to re-synchronize: OK");

    println!("== dynamic deployment while in operation ==");
    // §6: "Additional nodes can be deployed dynamically at a later stage
    // as well, while the system is already in operation."
    let newcomer = realm.add_replica();
    assert_eq!(realm.lookup(newcomer, "svc-a").unwrap().value(), b"alpha");
    realm
        .bind(newcomer, "svc-d", HdnsEntry::leaf(b"delta".to_vec()))
        .unwrap();
    assert_eq!(realm.lookup(0, "svc-d").unwrap().value(), b"delta");
    println!("replica {newcomer} joined live, synced, and serves writes: OK");

    println!("== complete shutdown & cold recovery from disk ==");
    realm.shutdown_replica(0);
    realm.shutdown_replica(1);
    realm.shutdown_replica(2);
    drop(realm);

    let reborn = HdnsRealm::new(
        "ft-demo",
        3,
        StackConfig::default(),
        Some(data_dir.clone()),
        2027,
    );
    assert_eq!(reborn.lookup(0, "svc-a").unwrap().value(), b"alpha");
    assert!(reborn.lookup(1, "written-by-majority").is_some());
    println!("fresh deployment recovered persisted state: OK");

    println!("== unclean stop & cold recovery from the op log ==");
    // No shutdown_replica this time: the realm is dropped the way a killed
    // process leaves it. Nothing is compacted; the writes below exist on
    // disk only as records in the replicas' op logs.
    for i in 0..100 {
        let value = format!("v{i}").into_bytes();
        reborn
            .bind(i % 3, &format!("late-{i}"), HdnsEntry::leaf(value))
            .unwrap();
    }
    drop(reborn);

    let revived = HdnsRealm::new(
        "ft-demo",
        3,
        StackConfig::default(),
        Some(data_dir.clone()),
        2028,
    );
    for replica in 0..3 {
        assert_eq!(revived.lookup(replica, "svc-a").unwrap().value(), b"alpha");
        for i in 0..100 {
            assert_eq!(
                revived
                    .lookup(replica, &format!("late-{i}"))
                    .unwrap()
                    .value(),
                format!("v{i}").into_bytes(),
                "replica {replica} replayed late-{i} from its log"
            );
        }
    }
    println!("unclean stop lost no acknowledged write: OK");

    let _ = std::fs::remove_dir_all(&data_dir);
    println!("fault tolerance example OK");
}
