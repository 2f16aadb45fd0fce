//! What marshalling a value costs, as a budget: the allocations
//! `op::codec::marshal` and `unmarshal` make for a 64-character string, 64
//! bytes and a federation reference, and the bytes they write. Marshalling
//! writes one block from the borrowed value; unmarshalling a string or bytes
//! makes the one block the value owns. Lives in its own test binary because
//! `common` installs a counting `#[global_allocator]`.

use rndi::core::op::codec::{marshal, unmarshal};
use rndi::core::value::{BoundValue, Reference};

mod common;
use common::count_during;

#[test]
fn a_value_round_trip_stays_inside_its_allocation_budget() {
    // (what, the value, its encoded length, marshal and unmarshal budgets);
    // JSON took 10 + 7 allocations for the string and 74 bytes, and 22 to
    // unmarshal the reference.
    let cases = [
        ("Str(64)", BoundValue::Str("s".repeat(64)), 65, 1, 1),
        ("Bytes(64)", BoundValue::Bytes(vec![0xa5; 64]), 129, 1, 1),
        (
            "Reference::url",
            BoundValue::Reference(Reference::url("ldap://dir/ou=d0000")),
            35,
            1,
            4,
        ),
    ];
    for (what, value, len, marshal_budget, unmarshal_budget) in cases {
        let (bytes, marshalled) = count_during(|| marshal(&value).unwrap());
        let (back, unmarshalled) = count_during(|| unmarshal(&bytes));
        println!(
            "value footprint: {what}: {} bytes (budget {len}), marshal {} allocations \
             (budget {marshal_budget}), unmarshal {} (budget {unmarshal_budget})",
            bytes.len(),
            marshalled.calls,
            unmarshalled.calls
        );
        assert_eq!(back, value, "{what} reads back");
        assert_eq!(bytes.len(), len, "{what}'s encoded length");
        assert!(
            marshalled.calls <= marshal_budget,
            "marshalling {what}: {marshalled:?}, budget {marshal_budget}"
        );
        assert!(
            unmarshalled.calls <= unmarshal_budget,
            "unmarshalling {what}: {unmarshalled:?}, budget {unmarshal_budget}"
        );
    }
}
