//! `drive_op`'s continuation cache, held to the services' own
//! state: a warmed `dns://… → hdns://… → ldap://…` lookup asks only the
//! leaf; an HDNS relink through any replica, an expired DNS answer and an
//! LRU bound are each seen; and writes and renames beneath a cached link do
//! exactly what they do uncached. Also the HDNS pipeline cache, which
//! follows the same coherence rule (the replica's generation).
//!
//! Every test here takes one lock: provider op counts and the cache's
//! event counts are process-wide.

use std::sync::{Arc, Mutex, MutexGuard};

use rndi::core::lease::ManualClock;
use rndi::core::prelude::*;
use rndi::dns::{AuthServer, DnsName, ResourceRecord, Zone};
use rndi::hdns::HdnsRealm;
use rndi::providers::common::MsClock;
use rndi::providers::{DnsFactory, HdnsFactory, HdnsProviderContext, LdapFactory};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// This test's turn; a test that failed holding it passes it on.
fn turn() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

const ORGS: u32 = 4;
const DEPTS_PER_ORG: u32 = 4;
const LEAVES_PER_DEPT: u32 = 4;

/// The DNS anchor's TTL, seconds; the resolver keeps a denial 30 s.
const ANCHOR_TTL_S: u32 = 60;

fn url(org: u32, dept: u32, leaf: u32) -> String {
    format!("dns://global/o{org:02}/d{dept:02}/l{leaf}")
}

fn unit(org: u32, dept: u32) -> String {
    format!("ldap://dir/ou=u{org:02}{dept:02}")
}

fn anchor_zone(link: &str) -> Zone {
    let mut zone = Zone::new(DnsName::parse("global.test").unwrap());
    zone.insert(ResourceRecord::txt("global.test", ANCHOR_TTL_S, link));
    zone
}

/// DNS (`global.test` → `hdns://h0`) anchoring a two-replica HDNS realm
/// (`h0`, `h1`) whose `o<org>/d<dept>` links mount LDAP units of leaves
/// `l<leaf>` = `"v"`; `mem://east` and `mem://west` beside them.
struct World {
    ic: InitialContext,
    clock: Arc<ManualClock>,
    dns: AuthServer,
    mem: Arc<MemFactory>,
    realm: HdnsRealm,
}

fn world() -> World {
    let clock = ManualClock::new();
    let registry = Arc::new(ProviderRegistry::new());

    let dns = AuthServer::new();
    dns.add_zone(anchor_zone("hdns://h0"));
    let dns_factory = DnsFactory::new(clock.clone() as Arc<dyn MsClock>);
    dns_factory.register_anchor(
        "global",
        Arc::new(rndi::dns::Resolver::new(vec![dns.clone()])),
        DnsName::parse("global.test").unwrap(),
    );
    registry.register(dns_factory);

    let realm = HdnsRealm::new(
        "fed-cache",
        2,
        rndi::groupcast::StackConfig::default(),
        None,
        37,
    );
    let hdns = HdnsFactory::new();
    hdns.register_host("h0", realm.clone(), 0);
    hdns.register_host("h1", realm.clone(), 1);
    registry.register(hdns);

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
    let ldap_factory = LdapFactory::new(clock.clone() as Arc<dyn MsClock>);
    ldap_factory.register_host("dir", ldap, rndi::ldap::Dn::parse("o=dept").unwrap());
    registry.register(ldap_factory);

    let mem = MemFactory::new();
    for host in ["east", "west"] {
        mem.register_host(host, MemContext::new());
    }
    registry.register(mem.clone());

    let ic = InitialContext::new(registry, Environment::new()).unwrap();
    for org in 0..ORGS {
        ic.create_subcontext(&format!("hdns://h0/o{org:02}"))
            .unwrap();
        for dept in 0..DEPTS_PER_ORG {
            ic.create_subcontext(&unit(org, dept)).unwrap();
            ic.bind(
                &format!("hdns://h0/o{org:02}/d{dept:02}"),
                BoundValue::Reference(Reference::url(unit(org, dept))),
            )
            .unwrap();
            for leaf in 0..LEAVES_PER_DEPT {
                ic.bind(&format!("{}/l{leaf}", unit(org, dept)), "v")
                    .unwrap();
            }
        }
    }
    World {
        ic,
        clock,
        dns,
        mem,
        realm,
    }
}

fn urls() -> Vec<String> {
    (0..ORGS)
        .flat_map(|org| {
            (0..DEPTS_PER_ORG)
                .flat_map(move |dept| (0..LEAVES_PER_DEPT).map(move |leaf| url(org, dept, leaf)))
        })
        .collect()
}

/// Lookups every provider pipeline in the process has run.
fn provider_lookups() -> u64 {
    rndi::core::spi::telemetry::snapshot()
        .iter()
        .flat_map(|t| t.ops.iter())
        .filter(|row| row.kind == OpKind::Lookup)
        .map(|row| row.ops)
        .sum()
}

/// The continuation cache's `event`s so far: `hit`, `miss`, `stale`,
/// `eviction`.
fn hops(event: &str) -> u64 {
    let labels = [("provider", "federation"), ("event", event)];
    rndi::obs::metrics::counter("rndi_cache_events_total", &labels).get()
}

fn hops_cached(ic: &InitialContext) -> usize {
    ic.registry().continuations().len()
}

fn lookup_str(ic: &InitialContext, name: &str) -> String {
    match ic.lookup(name) {
        Ok(v) => v.as_str().unwrap_or("<not text>").to_string(),
        Err(e) => format!("error: {e}"),
    }
}

#[test]
fn a_warmed_federated_lookup_asks_only_the_leaf() {
    let _turn = turn();
    let w = world();
    let urls = urls();
    for u in &urls {
        assert_eq!(lookup_str(&w.ic, u), "v");
    }
    const LOOKUPS: u64 = 1_000;
    let before = provider_lookups();
    for i in 0..LOOKUPS as usize {
        assert_eq!(lookup_str(&w.ic, &urls[i * 37 % urls.len()]), "v");
    }
    let per_lookup = (provider_lookups() - before) as f64 / LOOKUPS as f64;
    println!(
        "provider lookups per warmed federated lookup: {per_lookup:.3} (budget 1.1); \
         continuation cache: {} entries",
        hops_cached(&w.ic)
    );
    assert!(
        per_lookup <= 1.1,
        "{per_lookup} provider lookups per lookup"
    );
    assert!(
        per_lookup >= 1.0,
        "the leaf is read every time: {per_lookup}"
    );
    // One DNS prefix per org, one HDNS link per department.
    assert_eq!(hops_cached(&w.ic) as u32, ORGS + ORGS * DEPTS_PER_ORG);
}

#[test]
fn a_relink_through_either_replica_is_followed() {
    let _turn = turn();
    let w = world();
    let name = url(1, 2, 3);
    assert_eq!(lookup_str(&w.ic, &name), "v");
    let (hits, stale) = (hops("hit"), hops("stale"));
    assert_eq!(lookup_str(&w.ic, &name), "v");
    assert_eq!(hops("hit"), hits + 2, "the second lookup took both hops");

    for (replica, host) in [("h1", "east"), ("h0", "west")] {
        w.mem
            .host(host)
            .unwrap()
            .bind_str("l3", format!("{host}-l3"))
            .unwrap();
        // Through the other replica first, then through the one the DNS
        // anchor links to, whose answer was cached.
        w.ic.rebind(
            &format!("hdns://{replica}/o01/d02"),
            BoundValue::Reference(Reference::url(format!("mem://{host}"))),
        )
        .unwrap();
        assert_eq!(
            lookup_str(&w.ic, &name),
            format!("{host}-l3"),
            "relinked through {replica}"
        );
    }
    assert_eq!(hops("stale"), stale + 2, "each relink lapsed the hop");
    // Other departments' hops lapsed with the replica's generation, and
    // resolve again to where they always led.
    assert_eq!(lookup_str(&w.ic, &url(0, 0, 0)), "v");
    assert_eq!(w.realm.replica_count(), 2);
}

#[test]
fn an_expired_dns_answer_is_resolved_again() {
    let _turn = turn();
    let w = world();
    let name = url(2, 1, 0);
    assert_eq!(lookup_str(&w.ic, &name), "v");

    // The anchor now links elsewhere; the cached hop rests on answers the
    // resolver may keep for 30 s (the denial of `o02`) and 60 s.
    let alt = MemContext::new();
    alt.create_subcontext(&"o02".into()).unwrap();
    alt.create_subcontext(&"o02/d01".into()).unwrap();
    alt.bind_str("o02/d01/l0", "alt").unwrap();
    w.mem.register_host("alt", alt);
    w.dns.add_zone(anchor_zone("mem://alt"));

    w.clock.advance(29_999);
    assert_eq!(lookup_str(&w.ic, &name), "v", "both answers still live");
    let stale = hops("stale");
    w.clock.advance(ANCHOR_TTL_S as u64 * 1_000);
    assert_eq!(lookup_str(&w.ic, &name), "alt", "the anchor asked again");
    assert_eq!(hops("stale"), stale + 1);
}

#[test]
fn made_up_prefixes_leave_the_cache_at_its_cap() {
    let _turn = turn();
    let w = world();
    const CAP: usize = 4_096;
    const MADE_UP: usize = 10_000;
    let evicted = hops("eviction");
    for i in 0..MADE_UP {
        // DNS denies `x<i>`, so each name caches one hop to HDNS, where
        // nothing is bound.
        let err = w.ic.lookup(&format!("dns://global/x{i}/y")).unwrap_err();
        assert!(matches!(err, NamingError::NameNotFound { .. }), "{err:?}");
    }
    let evicted = hops("eviction") - evicted;
    println!(
        "{MADE_UP} made-up prefixes: {} entries (cap {CAP}), {evicted} evicted",
        hops_cached(&w.ic)
    );
    assert_eq!(hops_cached(&w.ic), CAP);
    assert_eq!(evicted as usize, MADE_UP - CAP);
    // The cache still serves what it holds.
    assert_eq!(lookup_str(&w.ic, &url(3, 3, 3)), "v");
    assert_eq!(lookup_str(&w.ic, &url(3, 3, 2)), "v");
}

#[test]
fn a_write_beneath_a_cached_link_lands_at_its_target() {
    let _turn = turn();
    let w = world();
    assert_eq!(lookup_str(&w.ic, &url(0, 3, 0)), "v");
    let hits = hops("hit");
    w.ic.rebind(&url(0, 3, 1), "rebound").unwrap();
    w.ic.bind("dns://global/o00/d03/fresh", "bound").unwrap();
    assert_eq!(hops("hit"), hits + 4, "two hops each");
    assert_eq!(lookup_str(&w.ic, &format!("{}/l1", unit(0, 3))), "rebound");
    assert_eq!(lookup_str(&w.ic, &format!("{}/fresh", unit(0, 3))), "bound");
    // Nothing landed in the naming systems the hops skipped.
    assert!(w.realm.lookup(0, "o00/d03/fresh").is_none());
    w.ic.unbind("dns://global/o00/d03/fresh").unwrap();
    assert!(w.ic.lookup(&format!("{}/fresh", unit(0, 3))).is_err());
}

#[test]
fn a_rename_across_a_cached_prefix_behaves_as_uncached() {
    let _turn = turn();
    let w = world();
    let east = w.mem.host("east").unwrap();
    w.ic.rebind(
        "hdns://h0/o03/d00",
        BoundValue::Reference(Reference::url("mem://east")),
    )
    .unwrap();
    let names = |ctx: &MemContext| -> Vec<String> {
        let mut names: Vec<String> = ctx
            .list_str("")
            .unwrap()
            .into_iter()
            .map(|p| p.name)
            .collect();
        names.sort();
        names
    };
    let targets = [
        "o03/d00/y",
        "o03/d01/y",
        "o03/d00",
        "o03",
        "y",
        "o03/d00/x/y",
    ];
    for target in targets {
        let mut seen = Vec::new();
        for warm in [false, true] {
            for n in names(&east) {
                east.unbind_str(&n).unwrap();
            }
            east.bind_str("x", "v").unwrap();
            w.ic.registry().continuations().clear();
            if warm {
                assert_eq!(lookup_str(&w.ic, "dns://global/o03/d00/x"), "v");
            }
            let hits = hops("hit");
            let got = w.ic.rename("dns://global/o03/d00/x", target);
            seen.push((format!("{got:?}"), names(&east)));
            assert_eq!(hops("hit") > hits, warm, "{target}: cached only when warm");
        }
        assert_eq!(
            seen[0], seen[1],
            "rename to {target}: uncached, then cached"
        );
    }
}

/// Replica `node` of `realm` behind a pipeline that caches lookups 60 s.
fn cached(realm: &HdnsRealm, node: usize) -> Arc<ProviderPipeline<HdnsProviderContext>> {
    let env = Environment::new().with(env_keys::CACHE_TTL_MS, "60000");
    HdnsProviderContext::with_env(realm.clone(), node, "cached", &env)
}

#[test]
fn a_state_transfer_refreshes_the_pipeline_cache_and_tells_listeners() {
    let _turn = turn();
    let realm = HdnsRealm::new(
        "resync-cache",
        3,
        rndi::groupcast::StackConfig::default(),
        None,
        41,
    );
    let (writer, reader) = (cached(&realm, 0), cached(&realm, 2));
    writer.bind_str("k", "1").unwrap();
    // Deliver what replica 2 saw so far (its join, the bind), then cache.
    reader.poll_events();
    let listener = CollectingListener::new();
    reader.add_listener(&"k".into(), listener.clone()).unwrap();
    assert_eq!(reader.lookup_str("k").unwrap().as_str(), Some("1"));
    assert_eq!(reader.cache().unwrap().len(), 1);

    realm.partition(&[&[0, 1], &[2]]);
    writer.rebind_str("k", "2").unwrap();
    realm.heal();
    assert_eq!(
        realm.lookup(2, "k").unwrap().value(),
        realm.lookup(0, "k").unwrap().value(),
        "replica 2's store took the write by state transfer"
    );
    assert_eq!(reader.lookup_str("k").unwrap().as_str(), Some("2"));
    reader.poll_events();
    assert_eq!(reader.lookup_str("k").unwrap().as_str(), Some("2"));
    let told: Vec<(EventType, String)> = listener
        .drain()
        .into_iter()
        .map(|e| (e.event_type, e.name.to_string()))
        .collect();
    assert!(
        told.contains(&(EventType::ObjectChanged, String::new())),
        "a listener on k hears of the state transfer: {told:?}"
    );
}

#[test]
fn the_pipeline_cache_sees_a_write_made_through_another_replica() {
    let _turn = turn();
    let realm = HdnsRealm::new(
        "remote-write-cache",
        2,
        rndi::groupcast::StackConfig::default(),
        None,
        43,
    );
    let (writer, reader) = (cached(&realm, 0), cached(&realm, 1));
    writer.bind_str("k", "1").unwrap();
    assert_eq!(reader.lookup_str("k").unwrap().as_str(), Some("1"));
    assert_eq!(reader.lookup_str("k").unwrap().as_str(), Some("1"));
    let cache = reader.cache().unwrap();
    assert_eq!(cache.hits(), 1);
    writer.rebind_str("k", "2").unwrap();
    assert_eq!(reader.lookup_str("k").unwrap().as_str(), Some("2"));
    // And, unchanged since, it is served from the cache again.
    assert_eq!(reader.lookup_str("k").unwrap().as_str(), Some("2"));
    assert_eq!(cache.hits(), 2);
}
