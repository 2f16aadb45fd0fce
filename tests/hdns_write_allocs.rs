//! Allocation budget of one replicated HDNS write: how many heap
//! allocations, and how many bytes, one `realm.rebind` of a marshalled
//! 64-character string makes on a 1-replica and a 3-replica realm, counted exactly — the write
//! leg's counterpart of `federation_allocs.rs` — and the heap one
//! compaction of `replica_write`'s store needs at its peak. Lives in its own
//! test binary because `common` installs a counting `#[global_allocator]`.

use rndi::core::op::codec::marshal;
use rndi::core::value::BoundValue;
use rndi::groupcast::{Cluster, StackConfig};
use rndi::hdns::{HdnsEntry, HdnsNode, HdnsRealm, Op};

mod common;
use common::{count_during, peak_bytes_during, Allocated};

const NAMES: u32 = 64;

/// The length of the repo benchmark's value, a 64-character string, as the
/// provider pipeline marshals it.
fn value_len() -> usize {
    marshal(&BoundValue::Str("v".repeat(64))).unwrap().len()
}

fn name(i: u32) -> String {
    format!("n/k{i:06}")
}

/// A realm with `NAMES` leaves under one context, every name rebound a few
/// times so map capacities, interned instrument handles and the
/// sequencer's buffers are in place.
fn warmed(replicas: usize) -> HdnsRealm {
    let realm = HdnsRealm::new("write-allocs", replicas, StackConfig::default(), None, 17);
    realm.create_context(0, "n").unwrap();
    let value_len = value_len();
    for round in 0..3u8 {
        for i in 0..NAMES {
            realm
                .rebind(0, &name(i), HdnsEntry::leaf(vec![round; value_len]))
                .unwrap();
        }
    }
    realm
}

/// The worst allocation count and the worst byte count of one rebind,
/// over every name.
fn worst_rebind(realm: &HdnsRealm) -> Allocated {
    let value_len = value_len();
    (0..NAMES).fold(Allocated::default(), |worst, i| {
        // Nobody watches this realm: drain the change events, or the
        // figure is their queue's growth.
        for replica in 0..realm.replica_count() {
            realm.take_events(replica);
        }
        let (path, entry) = (name(i), HdnsEntry::leaf(vec![9; value_len]));
        let ((), one) = count_during(|| realm.rebind(0, &path, entry).unwrap());
        Allocated {
            calls: worst.calls.max(one.calls),
            bytes: worst.bytes.max(one.bytes),
            shrinks: worst.shrinks.max(one.shrinks),
        }
    })
}

fn within(measured: Allocated, budget: Allocated) -> bool {
    measured.calls <= budget.calls
        && measured.bytes <= budget.bytes
        && measured.shrinks <= budget.shrinks
}

#[test]
fn replicated_rebind_stays_inside_its_allocation_budget() {
    // Measured 17 allocations / 1 566 bytes and 31 / 2 996; calls + 20 %,
    // bytes as measured (1 592 and 3 056 while the value was its 74-byte
    // JSON). A decoded entry is one record that the
    // store keeps as it is; a path, a value and a normalized key were 19 /
    // 1 572 and 37 / 2 996. With JSON proposals and a JSON-encoding
    // `Wire::size()` the same rebinds took 706 / 45 346 and 1 342 / 95 508.
    const BUDGET_1: Allocated = Allocated {
        calls: 20,
        bytes: 1_566,
        shrinks: 0,
    };
    const BUDGET_3: Allocated = Allocated {
        calls: 37,
        bytes: 2_996,
        shrinks: 0,
    };
    /// A 1 MiB value is copied three times on its way through the group
    /// (proposal, `Ordered` body, decoded record); the JSON path built two
    /// 32-bytes-per-byte trees of it and allocated 306 MB.
    const BIG_VALUE_BUDGET: u64 = 8 << 20;
    /// What a 29-byte delivery may cost three replicas, whatever it claims.
    const HOSTILE_BUDGET: u64 = 16 << 10;

    let solo = warmed(1);
    let trio = warmed(3);
    let (one, three) = (worst_rebind(&solo), worst_rebind(&trio));
    let value_len = value_len();
    println!(
        "per rebind of {value_len} bytes: 1 replica {one:?} (budget {BUDGET_1:?}), \
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
    assert_eq!(
        solo.lookup(0, &name(0)).unwrap().value(),
        vec![9; value_len]
    );
    assert_eq!(
        trio.lookup(2, &name(NAMES - 1)).unwrap().value(),
        vec![9; value_len]
    );
}

#[test]
fn compaction_peak_heap_stays_near_the_snapshot_length() {
    // The repo benchmark's replica_write store: 2 000 leaves of 64-byte
    // values under 50 contexts.
    const CONTEXTS: u32 = 50;
    const PER_CONTEXT: u32 = 40;
    let dir = std::env::temp_dir().join(format!("rndi-compaction-{}", std::process::id()));
    let cluster = Cluster::new(17);
    let channel = cluster.create_channel(StackConfig::default());
    let mut node = HdnsNode::new(channel, Some(dir.join("replica-0.json")));
    node.connect("compaction").unwrap();
    let settle = |node: &mut HdnsNode| loop {
        cluster.pump_all();
        node.process();
        if cluster.in_flight() == 0 {
            break;
        }
    };
    settle(&mut node);
    for ctx in 0..CONTEXTS {
        let context = format!("r{ctx:02}");
        node.submit(Op::CreateContext {
            path: context.clone(),
        })
        .unwrap();
        for key in 0..PER_CONTEXT {
            let entry = HdnsEntry::leaf(vec![key as u8; 64]);
            let path = format!("{context}/k{key:02}");
            node.submit(Op::Bind {
                path,
                entry,
                overwrite: false,
            })
            .unwrap();
        }
        settle(&mut node);
    }
    assert_eq!(node.entry_count(), (CONTEXTS * (PER_CONTEXT + 1)) as usize);

    let snapshot_len = node.store_snapshot().len() as i64;
    let ((), peak) = peak_bytes_during(|| node.persist());
    let budget = 2 * snapshot_len + (64 << 10);
    println!("one compaction of a {snapshot_len}-byte snapshot: peak {peak} live bytes (budget {budget})");
    assert!(node.last_persist_error().is_none());
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        peak <= budget,
        "compaction peaked at {peak} live bytes for a {snapshot_len}-byte snapshot, budget {budget}"
    );
}
