//! What a composite name costs, counted: a name of the wire workloads'
//! shape (`c042/n07`) is one block, building any name allocates once, and a
//! clone, a view (prefix, suffix, tail) or a read of it allocates nothing.
//! Lives in its own test binary because `common` installs a counting
//! `#[global_allocator]`.

use std::hash::{BuildHasher, RandomState};

use rndi::core::name::CompositeName;

mod common;
use common::{count_during, Allocated};

/// The block of `c042/n07`: the `Arc`'s two counts (16), the component
/// count and two end offsets (12), the text `c042/n07` (8), rounded up to
/// the counts' alignment. A list of component strings made three
/// allocations of it (48 + 4 + 3 bytes).
const C042_N07: Allocated = Allocated {
    calls: 1,
    bytes: 40,
    shrinks: 0,
};

#[test]
fn a_name_is_one_block_and_its_views_allocate_nothing() {
    assert!(size_of::<CompositeName>() <= 24);

    let (name, built) = count_during(|| CompositeName::from_components(["c042", "n07"]));
    println!("c042/n07: {built:?} (budget {C042_N07:?})");
    assert_eq!(built, C042_N07, "building c042/n07");

    let other = CompositeName::from_components(["o07", "d42"]);
    let n07 = CompositeName::from_components(["n07"]);
    let hasher = RandomState::new();
    let calls = |op: &dyn Fn()| count_during(op).1.calls;
    let free: [(&str, u64); 12] = [
        ("empty", calls(&|| drop(CompositeName::empty()))),
        ("clone", calls(&|| drop(name.clone()))),
        ("prefix", calls(&|| drop(name.prefix(1)))),
        ("suffix", calls(&|| drop(name.suffix(1)))),
        ("tail", calls(&|| drop(name.tail()))),
        ("head", calls(&|| assert_eq!(name.head(), Some("c042")))),
        ("index", calls(&|| assert_eq!(&name[1], "n07"))),
        ("joined", calls(&|| assert_eq!(name.tail().joined(), "n07"))),
        ("iter", calls(&|| assert_eq!(name.iter().rev().count(), 2))),
        (
            "starts_with",
            calls(&|| assert!(name.starts_with(&name.prefix(1)))),
        ),
        ("eq", calls(&|| assert!(name.prefix(1) != other.prefix(1)))),
        (
            "hash",
            calls(&|| assert_eq!(hasher.hash_one(name.tail()), hasher.hash_one(&n07))),
        ),
    ];
    let once: [(&str, u64); 4] = [
        (
            "parse",
            calls(&|| drop(CompositeName::parse("c042/n07").unwrap())),
        ),
        (
            "from_components",
            calls(&|| drop(CompositeName::from_components(["a", "b", "c"]))),
        ),
        ("child", calls(&|| drop(name.child("x")))),
        ("join", calls(&|| drop(name.join(&other)))),
    ];
    println!("allocations: free {free:?}, once {once:?}");
    for (op, n) in free {
        assert_eq!(n, 0, "{op} allocated");
    }
    for (op, n) in once {
        assert_eq!(n, 1, "{op} made {n} allocations, not one block");
    }
}
