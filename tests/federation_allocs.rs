//! Allocation budget of the federated path: how many heap allocations one
//! `dns://… → hdns://… → ldap://…` lookup and one rebind through the same
//! chain make, counted exactly. Lives in its own test binary because
//! `common` installs a counting `#[global_allocator]`.

use std::sync::Arc;

use rndi::core::prelude::*;
use rndi::providers::common::MsClock;
use rndi::providers::{DnsFactory, HdnsFactory, LdapFactory};

mod common;
use common::count_during;

struct ZeroClock;
impl MsClock for ZeroClock {
    fn now_ms(&self) -> u64 {
        0
    }
}

const ORGS: u32 = 4;
const DEPTS_PER_ORG: u32 = 4;
const LEAVES_PER_DEPT: u32 = 4;

/// `dns://global/o<org>/d<dept>/l<leaf>`: the DNS anchor links to HDNS,
/// `o<org>/d<dept>` in HDNS links to an LDAP organisational unit, the leaf
/// is an LDAP entry — the shape the repo benchmark's `fed_resolve` resolves.
fn url(org: u32, dept: u32, leaf: u32) -> String {
    format!("dns://global/o{org:02}/d{dept:02}/l{leaf}")
}

fn world() -> InitialContext {
    let clock: Arc<dyn MsClock> = Arc::new(ZeroClock);
    let registry = Arc::new(ProviderRegistry::new());

    let dns_server = rndi::dns::AuthServer::new();
    let mut zone = rndi::dns::Zone::new(rndi::dns::DnsName::parse("global.test").unwrap());
    zone.insert(rndi::dns::ResourceRecord::txt(
        "global.test",
        3600,
        "hdns://h0",
    ));
    dns_server.add_zone(zone);
    let dns_factory = DnsFactory::new(clock.clone());
    dns_factory.register_anchor(
        "global",
        Arc::new(rndi::dns::Resolver::new(vec![dns_server])),
        rndi::dns::DnsName::parse("global.test").unwrap(),
    );
    registry.register(dns_factory);

    let hdns_realm = rndi::hdns::HdnsRealm::new(
        "fed-allocs",
        2,
        rndi::groupcast::StackConfig::default(),
        None,
        31,
    );
    let hdns_factory = HdnsFactory::new();
    hdns_factory.register_host("h0", hdns_realm, 0);
    registry.register(hdns_factory);

    let ldap = rndi::ldap::DirectoryServer::new(rndi::ldap::ServerConfig {
        read_throttle_per_sec: None,
        ..Default::default()
    });
    ldap.connect_anonymous()
        .add(
            rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("o=dept").unwrap())
                .with("objectClass", "organization")
                .with("o", "dept"),
        )
        .unwrap();
    let ldap_factory = LdapFactory::new(clock);
    ldap_factory.register_host("dir", ldap, rndi::ldap::Dn::parse("o=dept").unwrap());
    registry.register(ldap_factory);

    let ctx = InitialContext::new(registry, Environment::new()).unwrap();
    for org in 0..ORGS {
        ctx.create_subcontext(&format!("hdns://h0/o{org:02}"))
            .unwrap();
        for dept in 0..DEPTS_PER_ORG {
            let unit = format!("ldap://dir/ou=u{org:02}{dept:02}");
            ctx.create_subcontext(&unit).unwrap();
            ctx.bind(
                &format!("hdns://h0/o{org:02}/d{dept:02}"),
                BoundValue::Reference(Reference::url(unit.clone())),
            )
            .unwrap();
            for leaf in 0..LEAVES_PER_DEPT {
                ctx.bind(&format!("{unit}/l{leaf}"), "v0").unwrap();
            }
        }
    }
    ctx
}

#[test]
fn federated_lookup_and_rebind_stay_inside_their_allocation_budgets() {
    const LOOKUP_BUDGET: u64 = 82;
    const REBIND_BUDGET: u64 = 125;

    let ctx = world();
    let urls: Vec<String> = (0..ORGS)
        .flat_map(|org| {
            (0..DEPTS_PER_ORG)
                .flat_map(move |dept| (0..LEAVES_PER_DEPT).map(move |leaf| url(org, dept, leaf)))
        })
        .collect();
    // Warm every name through both ops: resolver cache lines, interned
    // instrument handles and map capacities are all in place afterwards.
    for round in 0..3 {
        for u in &urls {
            ctx.rebind(u, format!("warm{round}")).unwrap();
            assert_eq!(
                ctx.lookup(u).unwrap().as_str(),
                Some(format!("warm{round}").as_str())
            );
        }
    }

    let per_op = |op: &dyn Fn(&str)| -> (u64, u64) {
        let counts: Vec<u64> = urls
            .iter()
            .map(|u| count_during(|| op(u)).1.calls)
            .collect();
        (
            *counts.iter().min().expect("urls"),
            *counts.iter().max().expect("urls"),
        )
    };
    let (lookup_min, lookup_max) = per_op(&|u| {
        ctx.lookup(u).unwrap();
    });
    let (rebind_min, rebind_max) = per_op(&|u| {
        ctx.rebind(u, "measured").unwrap();
    });
    println!(
        "allocations per federated op: lookup {lookup_min}..={lookup_max} (budget {LOOKUP_BUDGET}), \
         rebind {rebind_min}..={rebind_max} (budget {REBIND_BUDGET})"
    );
    assert!(
        lookup_max <= LOOKUP_BUDGET,
        "a federated lookup made {lookup_max} allocations, budget {LOOKUP_BUDGET}"
    );
    assert!(
        rebind_max <= REBIND_BUDGET,
        "a federated rebind made {rebind_max} allocations, budget {REBIND_BUDGET}"
    );
    // The write landed where the read finds it.
    assert_eq!(ctx.lookup(&urls[0]).unwrap().as_str(), Some("measured"));
}
