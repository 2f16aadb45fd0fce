//! What `fed_resolve`'s DNS leg leaves in the resolver's cache: 20 000
//! lookups of `o<org>/d<dept>/l<leaf>` (20 × 100 × 10) under an anchor
//! whose zone holds one record. Each lookup asks about its k + 1 = 4
//! prefixes, longest first; a zone answers NXDOMAIN for `o<org>` and,
//! under RFC 8020, the resolver answers every name below it from that one
//! line. So the cache holds the anchor's line and three per org — the first
//! leaf, department and org asked — where it held one per name asked.

use std::sync::Arc;

use rndi::core::prelude::*;
use rndi::dns::{AuthServer, DnsName, Resolver, ResourceRecord, Zone};
use rndi::providers::common::MsClock;
use rndi::providers::DnsProviderContext;

struct ZeroClock;
impl MsClock for ZeroClock {
    fn now_ms(&self) -> u64 {
        0
    }
}

const ORGS: u32 = 20;
const DEPTS_PER_ORG: u32 = 100;
const LEAVES_PER_DEPT: u32 = 10;
const LINES_BUDGET: usize = 1 + 3 * ORGS as usize;

#[test]
fn federated_lookups_cache_one_line_per_denied_subtree() {
    let anchor = DnsName::parse("global.test").unwrap();
    let mut zone = Zone::new(anchor.clone());
    zone.insert(ResourceRecord::txt("global.test", 3600, "hdns://hub"));
    let server = AuthServer::new();
    server.add_zone(zone);
    let resolver = Arc::new(Resolver::new(vec![server]));
    let ctx = DnsProviderContext::new(resolver.clone(), anchor, Arc::new(ZeroClock), "global");

    let lookups = ORGS * DEPTS_PER_ORG * LEAVES_PER_DEPT;
    for i in 0..lookups {
        // Scattered, as the benchmark draws its keys.
        let key = i * 7_919 % lookups;
        let (dept, leaf) = (key / LEAVES_PER_DEPT, key % LEAVES_PER_DEPT);
        let name = CompositeName::from_components([
            format!("o{:02}", dept / DEPTS_PER_ORG),
            format!("d{:02}", dept % DEPTS_PER_ORG),
            format!("l{leaf}"),
        ]);
        match ctx.lookup(&name) {
            Err(NamingError::Continue { remaining, .. }) => assert_eq!(remaining, name),
            other => panic!("{name}: the anchor's link answers, got {other:?}"),
        }
    }

    let (lines, stats) = (resolver.cache_len(), resolver.stats());
    println!(
        "dns denial: {lines} cache lines, {} upstream queries, {} hits after {lookups} \
         federated lookups (budget {LINES_BUDGET})",
        stats.upstream_queries, stats.hits
    );
    assert!(
        lines <= LINES_BUDGET,
        "{lines} lines, budget {LINES_BUDGET}"
    );
    assert!(
        stats.upstream_queries <= LINES_BUDGET as u64,
        "{} upstream queries, budget {LINES_BUDGET}",
        stats.upstream_queries
    );
    assert_eq!(
        stats.hits + stats.misses,
        4 * u64::from(lookups),
        "k + 1 probes each"
    );
}
