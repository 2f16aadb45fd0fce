//! What an HDNS replica holds per binding, as a budget: the live heap bytes
//! one binding of the repo benchmark's wire store leaves in an `HdnsStore`
//! (every replica pays it, since each keeps the whole namespace), and a
//! replica read that must not touch the heap at all. Lives in its own test
//! binary because `common` installs a counting `#[global_allocator]`.

use rndi::groupcast::StackConfig;
use rndi::hdns::{HdnsEntry, HdnsRealm, HdnsStore, Op};

mod common;
use common::{count_during, live_bytes_during};

/// The wire workloads' store: 200 contexts of 100 leaves each.
const CONTEXTS: u32 = 200;
const LEAVES_PER_CONTEXT: u32 = 100;
/// A 64-character string value as the provider pipeline marshals it.
const VALUE_LEN: usize = 74;

fn value(key: u32) -> Vec<u8> {
    let mut v = format!("{key:08x}").into_bytes();
    v.resize(VALUE_LEN, b'.');
    v
}

#[test]
fn a_stored_binding_stays_inside_its_byte_budget() {
    // Measured 146 with one shared record per binding; a map of path
    // strings to entries that owned a value and an attribute map held 236.
    const BYTES_PER_BINDING_BUDGET: i64 = 160;

    let (store, live) = live_bytes_during(|| {
        let mut store = HdnsStore::new();
        for ctx in 0..CONTEXTS {
            let context = format!("c{ctx:03}");
            store
                .apply_owned(Op::CreateContext {
                    path: context.clone(),
                })
                .unwrap();
            for leaf in 0..LEAVES_PER_CONTEXT {
                store
                    .apply_owned(Op::Bind {
                        path: format!("{context}/n{leaf:02}"),
                        entry: HdnsEntry::leaf(value(ctx * LEAVES_PER_CONTEXT + leaf)),
                        overwrite: false,
                    })
                    .unwrap();
            }
        }
        store
    });
    let bindings = i64::from(CONTEXTS * (LEAVES_PER_CONTEXT + 1));
    assert_eq!(store.len() as i64, bindings);
    let per_binding = live / bindings;
    println!(
        "hdns footprint: {per_binding} live bytes per binding \
         ({bindings} bindings, budget {BYTES_PER_BINDING_BUDGET})"
    );
    assert!(
        per_binding <= BYTES_PER_BINDING_BUDGET,
        "a binding holds {per_binding} bytes, budget {BYTES_PER_BINDING_BUDGET}"
    );
    assert_eq!(store.get("c199/n99").unwrap().value(), value(19_999));
}

#[test]
fn a_replica_read_touches_no_heap() {
    let realm = HdnsRealm::new("footprint", 1, StackConfig::default(), None, 5);
    realm.create_context(0, "c000").unwrap();
    realm
        .bind(0, "c000/n00", HdnsEntry::leaf(value(0)))
        .unwrap();
    let (found, allocated) = count_during(|| realm.lookup(0, "c000/n00"));
    println!("hdns replica read: {allocated:?}");
    assert_eq!(found.unwrap().value(), value(0));
    assert_eq!(allocated.calls, 0, "HdnsRealm::lookup allocated");
}
