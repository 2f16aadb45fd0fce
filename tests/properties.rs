//! Property-based tests over the public API: parser round-trips, filter
//! dialect agreement, replicated-store convergence, and mutual-exclusion
//! safety under randomized schedules.

use proptest::prelude::*;

use rndi::core::prelude::*;

// ---------------------------------------------------------------- names --

fn component_strategy() -> impl Strategy<Value = String> {
    // Arbitrary printable components, including the characters that need
    // escaping ('/', '\\', quotes), and the empty component.
    proptest::string::string_regex("[ -~]{0,12}").expect("valid regex")
}

proptest! {
    #[test]
    fn composite_name_display_parse_roundtrip(
        components in proptest::collection::vec(component_strategy(), 0..6)
    ) {
        let name = CompositeName::from_components(components.clone());
        let printed = name.to_string();
        let reparsed = CompositeName::parse(&printed).expect("printed names reparse");
        prop_assert_eq!(reparsed.components(), &components[..]);
    }

    #[test]
    fn composite_name_prefix_suffix_partition(
        components in proptest::collection::vec(component_strategy(), 1..8),
        cut in 0usize..8
    ) {
        let name = CompositeName::from_components(components);
        let cut = cut.min(name.len());
        let rejoined = name.prefix(cut).join(&name.suffix(cut));
        prop_assert_eq!(rejoined, name);
    }
}

// -------------------------------------------------------------- filters --

fn attr_id() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z][a-zA-Z0-9]{0,6}").expect("valid regex")
}

fn attr_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9 _.-]{1,10}").expect("valid regex")
}

/// A small random filter AST (depth-bounded).
fn filter_strategy() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        (attr_id(), attr_value()).prop_map(|(a, v)| Filter::Eq(a, v)),
        (attr_id(), attr_value()).prop_map(|(a, v)| Filter::Ge(a, v)),
        (attr_id(), attr_value()).prop_map(|(a, v)| Filter::Le(a, v)),
        (attr_id(), attr_value()).prop_map(|(a, v)| Filter::Approx(a, v)),
        attr_id().prop_map(Filter::Present),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Filter::And),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

fn random_attrs() -> impl Strategy<Value = Attributes> {
    proptest::collection::vec((attr_id(), attr_value()), 0..6).prop_map(|pairs| {
        let mut out = Attributes::new();
        for (id, v) in pairs {
            out.add_value(&id, v);
        }
        out
    })
}

proptest! {
    #[test]
    fn filter_display_parse_roundtrip(f in filter_strategy()) {
        let printed = f.to_string();
        let reparsed = Filter::parse(&printed).expect("printed filters reparse");
        prop_assert_eq!(reparsed, f);
    }

    #[test]
    fn filter_evaluation_stable_under_roundtrip(
        f in filter_strategy(),
        attrs in random_attrs()
    ) {
        let reparsed = Filter::parse(&f.to_string()).unwrap();
        prop_assert_eq!(f.matches(&attrs), reparsed.matches(&attrs));
    }

    #[test]
    fn not_is_involutive(f in filter_strategy(), attrs in random_attrs()) {
        let double_not = Filter::Not(Box::new(Filter::Not(Box::new(f.clone()))));
        prop_assert_eq!(f.matches(&attrs), double_not.matches(&attrs));
    }

    /// The core dialect and the LDAP server's independently written
    /// dialect must agree — otherwise provider-side filter translation
    /// silently changes query semantics.
    #[test]
    fn core_and_ldap_filter_dialects_agree(
        f in filter_strategy(),
        attrs in proptest::collection::vec((attr_id(), attr_value()), 0..6)
    ) {
        let core_attrs = {
            let mut out = Attributes::new();
            for (id, v) in &attrs {
                out.add_value(id, v.clone());
            }
            out
        };
        let ldap_entry = {
            let mut e = rndi::ldap::LdapEntry::new(rndi::ldap::Dn::root());
            for (id, v) in &attrs {
                e.add_value(id, v.clone());
            }
            e
        };
        let ldap_filter = rndi::ldap::LdapFilter::parse(&f.to_string())
            .expect("core-printed filters parse in the LDAP dialect");
        prop_assert_eq!(f.matches(&core_attrs), ldap_filter.matches(&ldap_entry));
    }
}

// ------------------------------------------------------ replicated store --

#[derive(Clone, Debug)]
enum StoreAction {
    Bind(String, Vec<u8>, bool),
    Unbind(String),
    CreateCtx(String),
    Rename(String, String),
}

fn path_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-c](/[a-c]){0,2}").expect("valid regex")
}

fn action_strategy() -> impl Strategy<Value = StoreAction> {
    prop_oneof![
        (
            path_strategy(),
            proptest::collection::vec(any::<u8>(), 0..4),
            any::<bool>()
        )
            .prop_map(|(p, v, o)| StoreAction::Bind(p, v, o)),
        path_strategy().prop_map(StoreAction::Unbind),
        path_strategy().prop_map(StoreAction::CreateCtx),
        (path_strategy(), path_strategy()).prop_map(|(a, b)| StoreAction::Rename(a, b)),
    ]
}

proptest! {
    /// Replica determinism: any op sequence applied to two fresh stores
    /// yields identical results and identical final state — the invariant
    /// HDNS's consistency rests on.
    #[test]
    fn hdns_store_is_deterministic(actions in proptest::collection::vec(action_strategy(), 0..40)) {
        use rndi::hdns::{HdnsEntry, HdnsStore, Op};
        let to_op = |a: &StoreAction| match a {
            StoreAction::Bind(p, v, o) => Op::Bind {
                path: p.clone(),
                entry: HdnsEntry::leaf(v.clone()),
                overwrite: *o,
            },
            StoreAction::Unbind(p) => Op::Unbind { path: p.clone() },
            StoreAction::CreateCtx(p) => Op::CreateContext { path: p.clone() },
            StoreAction::Rename(a, b) => Op::Rename { from: a.clone(), to: b.clone() },
        };
        let mut s1 = HdnsStore::new();
        let mut s2 = HdnsStore::new();
        for a in &actions {
            let op = to_op(a);
            prop_assert_eq!(s1.apply(&op), s2.apply(&op));
        }
        prop_assert_eq!(s1.snapshot(), s2.snapshot());
    }

    /// Structural invariant: after any op sequence, every entry's parent
    /// exists and is a context.
    #[test]
    fn hdns_store_hierarchy_invariant(actions in proptest::collection::vec(action_strategy(), 0..40)) {
        use rndi::hdns::{HdnsEntry, HdnsStore, Op};
        let mut store = HdnsStore::new();
        for a in &actions {
            let op = match a {
                StoreAction::Bind(p, v, o) => Op::Bind {
                    path: p.clone(),
                    entry: HdnsEntry::leaf(v.clone()),
                    overwrite: *o,
                },
                StoreAction::Unbind(p) => Op::Unbind { path: p.clone() },
                StoreAction::CreateCtx(p) => Op::CreateContext { path: p.clone() },
                StoreAction::Rename(x, y) => Op::Rename { from: x.clone(), to: y.clone() },
            };
            let _ = store.apply(&op);
        }
        for (path, _) in store.iter() {
            if let Some((parent, _)) = path.rsplit_once('/') {
                let p = store.get(parent);
                prop_assert!(p.is_some(), "orphan {path}");
                prop_assert!(p.unwrap().is_context(), "parent of {path} not a context");
            }
        }
    }

    /// Snapshots are faithful: restore(snapshot(s)) == s.
    #[test]
    fn hdns_snapshot_roundtrip(actions in proptest::collection::vec(action_strategy(), 0..30)) {
        use rndi::hdns::{HdnsEntry, HdnsStore, Op};
        let mut store = HdnsStore::new();
        for a in &actions {
            let _ = store.apply(&match a {
                StoreAction::Bind(p, v, o) => Op::Bind {
                    path: p.clone(),
                    entry: HdnsEntry::leaf(v.clone()),
                    overwrite: *o,
                },
                StoreAction::Unbind(p) => Op::Unbind { path: p.clone() },
                StoreAction::CreateCtx(p) => Op::CreateContext { path: p.clone() },
                StoreAction::Rename(x, y) => Op::Rename { from: x.clone(), to: y.clone() },
            });
        }
        let restored = HdnsStore::restore(&store.snapshot()).unwrap();
        prop_assert_eq!(restored.snapshot(), store.snapshot());
    }
}

// ----------------------------------------------------------------- DNs --

proptest! {
    #[test]
    fn dn_display_parse_roundtrip(
        // Values avoid leading/trailing whitespace: this LDAP dialect
        // trims RDN boundaries on parse (whitespace-insensitive DNs).
        rdns in proptest::collection::vec(
            ("[a-z]{1,4}", "[a-zA-Z0-9]([a-zA-Z0-9 ,=\\\\]{0,6}[a-zA-Z0-9])?"),
            1..5
        )
    ) {
        use rndi::ldap::{Dn, Rdn};
        let dn = Dn::from_rdns(rdns.into_iter().map(|(a, v)| Rdn::new(a, v)).collect());
        let printed = dn.to_string();
        let reparsed = Dn::parse(&printed).expect("printed DNs reparse");
        prop_assert_eq!(reparsed.normalized(), dn.normalized());
    }

    #[test]
    fn dns_name_roundtrip(labels in proptest::collection::vec("[a-z0-9]{1,8}", 1..5)) {
        use rndi::dns::DnsName;
        let name = DnsName::from_labels(labels.clone());
        let reparsed = DnsName::parse(&name.to_string()).unwrap();
        prop_assert_eq!(reparsed, name);
    }
}

// --------------------------------------------------- mem-context model --

proptest! {
    /// MemContext agrees with a flat model map for single-level names.
    #[test]
    fn mem_context_matches_model(
        ops in proptest::collection::vec(
            ("[a-e]", proptest::option::of("[a-z]{1,5}")),
            0..40
        )
    ) {
        use std::collections::HashMap;
        use rndi::core::context::ContextExt;
        let ctx = MemContext::new();
        let mut model: HashMap<String, String> = HashMap::new();
        for (key, value) in ops {
            match value {
                Some(v) => {
                    let _ = ctx.rebind_str(&key, v.as_str());
                    model.insert(key, v);
                }
                None => {
                    let _ = ctx.unbind_str(&key);
                    model.remove(&key);
                }
            }
        }
        for (k, v) in &model {
            let got = ctx.lookup_str(k).unwrap();
            prop_assert_eq!(got.as_str(), Some(v.as_str()));
        }
        let listed = ctx.list_str("").unwrap();
        prop_assert_eq!(listed.len(), model.len());
    }
}
