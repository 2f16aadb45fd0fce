//! Allocation budget of one replicated HDNS write: how many heap
//! allocations, and how many bytes, one `realm.rebind` of a 74-byte value
//! makes on a 1-replica and a 3-replica realm, counted exactly — the write
//! leg's counterpart of `federation_allocs.rs`. Lives in its own test
//! binary because `common` installs a counting `#[global_allocator]`.

use rndi::groupcast::StackConfig;
use rndi::hdns::{HdnsEntry, HdnsRealm};

mod common;
use common::{count_during, Allocated};

const NAMES: u32 = 64;
/// The repo benchmark's marshalled value size.
const VALUE_LEN: usize = 74;

fn name(i: u32) -> String {
    format!("n/k{i:06}")
}

/// A realm with `NAMES` leaves under one context, every name rebound a few
/// times so map capacities, interned instrument handles and the
/// sequencer's buffers are in place.
fn warmed(replicas: usize) -> HdnsRealm {
    let realm = HdnsRealm::new("write-allocs", replicas, StackConfig::default(), None, 17);
    realm.create_context(0, "n").unwrap();
    for round in 0..3u8 {
        for i in 0..NAMES {
            realm
                .rebind(0, &name(i), HdnsEntry::leaf(vec![round; VALUE_LEN]))
                .unwrap();
        }
    }
    realm
}

/// The worst allocation count and the worst byte count of one rebind,
/// over every name.
fn worst_rebind(realm: &HdnsRealm) -> Allocated {
    (0..NAMES).fold(Allocated::default(), |worst, i| {
        // Nobody watches this realm: drain the change events, or the
        // figure is their queue's growth.
        for replica in 0..realm.replica_count() {
            realm.take_events(replica);
        }
        let (path, entry) = (name(i), HdnsEntry::leaf(vec![9; VALUE_LEN]));
        let ((), one) = count_during(|| realm.rebind(0, &path, entry).unwrap());
        Allocated {
            calls: worst.calls.max(one.calls),
            bytes: worst.bytes.max(one.bytes),
        }
    })
}

fn within(measured: Allocated, budget: Allocated) -> bool {
    measured.calls <= budget.calls && measured.bytes <= budget.bytes
}

#[test]
fn replicated_rebind_stays_inside_its_allocation_budget() {
    // Measured 19 allocations / 1 572 bytes and 37 / 2 996, + 20 %. With
    // JSON proposals and a JSON-encoding `Wire::size()` the same rebinds
    // took 706 / 45 346 and 1 342 / 95 508 (CHANGES.md, PR 18).
    const BUDGET_1: Allocated = Allocated {
        calls: 22,
        bytes: 1_886,
    };
    const BUDGET_3: Allocated = Allocated {
        calls: 44,
        bytes: 3_595,
    };
    /// A 1 MiB value is copied three times on its way through the group
    /// (proposal, `Ordered` body, decoded entry); the JSON path built two
    /// 32-bytes-per-byte trees of it and allocated 306 MB.
    const BIG_VALUE_BUDGET: u64 = 8 << 20;
    /// What a 29-byte delivery may cost three replicas, whatever it claims.
    const HOSTILE_BUDGET: u64 = 16 << 10;

    let solo = warmed(1);
    let trio = warmed(3);
    let (one, three) = (worst_rebind(&solo), worst_rebind(&trio));
    println!(
        "per rebind of {VALUE_LEN} bytes: 1 replica {one:?} (budget {BUDGET_1:?}), \
         3 replicas {three:?} (budget {BUDGET_3:?})"
    );

    let big = HdnsEntry::leaf(vec![5; 1 << 20]);
    let big_bytes = count_during(|| solo.rebind(0, "n/big", big).unwrap())
        .1
        .bytes;
    println!("one rebind of 1 MiB, 1 replica: {big_bytes} bytes allocated");

    // A proposal from some other version, multicast by a fourth member:
    // a known version byte, an op id, `Bind`, and a path of "4 GiB".
    let stranger = trio.cluster().create_channel(StackConfig::default());
    stranger.connect("write-allocs").unwrap();
    trio.cluster().detect_failures();
    trio.drive();
    let before = trio.store_snapshot(0);
    let mut hostile = vec![0x01];
    hostile.extend_from_slice(&7u64.to_le_bytes());
    hostile.push(1);
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    hostile.extend_from_slice(b"not 4 GiB of it");
    stranger.mcast(hostile).unwrap();
    let hostile_bytes = count_during(|| trio.drive()).1.bytes;
    println!("one hostile delivery, 3 replicas: {hostile_bytes} bytes allocated");
    for replica in 0..3 {
        assert_eq!(trio.store_snapshot(replica), before, "replica {replica}");
    }

    assert!(
        within(one, BUDGET_1),
        "a 1-replica rebind: {one:?}, budget {BUDGET_1:?}"
    );
    assert!(
        within(three, BUDGET_3),
        "a 3-replica rebind: {three:?}, budget {BUDGET_3:?}"
    );
    assert!(
        big_bytes < BIG_VALUE_BUDGET,
        "a 1 MiB rebind allocated {big_bytes} bytes, budget {BIG_VALUE_BUDGET}"
    );
    assert!(
        hostile_bytes < HOSTILE_BUDGET,
        "a hostile delivery allocated {hostile_bytes} bytes, budget {HOSTILE_BUDGET}"
    );
    // The measured writes landed.
    assert_eq!(solo.lookup(0, &name(0)).unwrap().value, vec![9; VALUE_LEN]);
    assert_eq!(
        trio.lookup(2, &name(NAMES - 1)).unwrap().value,
        vec![9; VALUE_LEN]
    );
}
