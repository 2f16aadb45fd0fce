//! Property tests: name algebra.

use proptest::prelude::*;

use minidns::DnsName;

fn name_strategy() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec("[a-z0-9]{1,10}", 0..5).prop_map(DnsName::from_labels)
}

proptest! {
    /// Name algebra: child/parent inverses and suffix transitivity.
    #[test]
    fn name_algebra(name in name_strategy(), label in "[a-z0-9]{1,8}") {
        let child = name.child(&label);
        let parent = child.parent();
        prop_assert_eq!(parent.as_ref(), Some(&name));
        prop_assert!(child.is_under(&name));
        prop_assert!(name.is_under(&DnsName::root()));
        // suffix(k) is a suffix relation.
        for k in 0..=name.label_count() {
            prop_assert!(name.is_under(&name.suffix(k)));
        }
    }

    /// Display/parse roundtrip for arbitrary names.
    #[test]
    fn name_roundtrip(name in name_strategy()) {
        prop_assert_eq!(DnsName::parse(&name.to_string()).unwrap(), name);
    }
}
