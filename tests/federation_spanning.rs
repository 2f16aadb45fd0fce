//! Cross-crate federation integration tests: composite names resolved
//! across three heterogeneous naming systems, writes through federated
//! paths, searches through mounts, and the resolution safety rails.

use std::sync::Arc;

use rndi::core::prelude::*;
use rndi::core::value::StoredValue;
use rndi::providers::common::MsClock;
use rndi::providers::{DnsFactory, FsFactory, HdnsFactory, JiniFactory, LdapFactory};

struct ZeroClock;
impl MsClock for ZeroClock {
    fn now_ms(&self) -> u64 {
        0
    }
}

/// A full deployment: DNS root, HDNS intermediate, Jini + LDAP + FS
/// leaves, all reachable through one `InitialContext`.
struct World {
    ctx: InitialContext,
    hdns_realm: rndi::hdns::HdnsRealm,
    _fs_root: std::path::PathBuf,
}

fn world(tag: &str) -> World {
    let clock: Arc<dyn MsClock> = Arc::new(ZeroClock);
    let registry = Arc::new(ProviderRegistry::new());

    // DNS root: anchor for federation "global".
    let dns_server = rndi::dns::AuthServer::new();
    let mut zone = rndi::dns::Zone::new(rndi::dns::DnsName::parse("global.test").unwrap());
    zone.insert(rndi::dns::ResourceRecord::txt(
        "global.test",
        60,
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

    // HDNS intermediate (2 replicas).
    let hdns_realm = rndi::hdns::HdnsRealm::new(
        "fed-int",
        2,
        rndi::groupcast::StackConfig::default(),
        None,
        31,
    );
    let hdns_factory = HdnsFactory::new();
    hdns_factory.register_host("h0", hdns_realm.clone(), 0);
    hdns_factory.register_host("h1", hdns_realm.clone(), 1);
    registry.register(hdns_factory);

    // Jini leaf.
    let rlus_clock = rndi::rlus::ManualClock::new();
    let registrar = rndi::rlus::Registrar::new(rlus_clock.clone(), u64::MAX / 4, 17);
    let jini_realm = rndi::rlus::DiscoveryRealm::new();
    jini_realm.announce(
        rndi::rlus::discovery::LookupLocator::new("lus", 4160),
        &["dept"],
        registrar,
    );
    registry.register(JiniFactory::new(
        jini_realm,
        rlus_clock as Arc<dyn rndi::rlus::Clock>,
    ));

    // LDAP leaf.
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

    // Filesystem leaf.
    let fs_root = std::env::temp_dir().join(format!("rndi-fedspan-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fs_root);
    std::fs::create_dir_all(&fs_root).unwrap();
    let fs_factory = FsFactory::new();
    fs_factory.register_root("localdisk", &fs_root);
    registry.register(fs_factory);

    let ctx = InitialContext::new(registry, Environment::new()).unwrap();
    World {
        ctx,
        hdns_realm,
        _fs_root: fs_root,
    }
}

#[test]
fn four_system_chain_resolves() {
    let w = world("chain");
    // dns://global → hdns://h0 → jini://lus → ldap://dir → value
    w.ctx
        .bind(
            "hdns://h0/dept-jini",
            BoundValue::Reference(Reference::url("jini://lus")),
        )
        .unwrap();
    w.ctx
        .bind(
            "jini://lus/dir-link",
            BoundValue::Reference(Reference::url("ldap://dir")),
        )
        .unwrap();
    w.ctx.bind("ldap://dir/treasure", "gold").unwrap();

    let got = w
        .ctx
        .lookup("dns://global/dept-jini/dir-link/treasure")
        .unwrap();
    assert_eq!(got.as_str(), Some("gold"));
}

#[test]
fn writes_flow_through_federation() {
    let w = world("writes");
    w.ctx
        .bind(
            "hdns://h0/disk",
            BoundValue::Reference(Reference::url("file://localdisk")),
        )
        .unwrap();
    // Write through DNS + HDNS into the filesystem.
    w.ctx
        .bind("dns://global/disk/config", "written-through-3-systems")
        .unwrap();
    // Direct read at the leaf agrees.
    assert_eq!(
        w.ctx.lookup("file://localdisk/config").unwrap().as_str(),
        Some("written-through-3-systems")
    );
    // Rebind and unbind also traverse.
    w.ctx.rebind("dns://global/disk/config", "v2").unwrap();
    assert_eq!(
        w.ctx.lookup("dns://global/disk/config").unwrap().as_str(),
        Some("v2")
    );
    w.ctx.unbind("dns://global/disk/config").unwrap();
    assert!(w.ctx.lookup("file://localdisk/config").is_err());
}

#[test]
fn search_through_a_mount() {
    let w = world("search");
    w.ctx
        .bind(
            "hdns://h0/registry",
            BoundValue::Reference(Reference::url("jini://lus")),
        )
        .unwrap();
    w.ctx
        .bind_with_attrs(
            "jini://lus/gpu-node",
            BoundValue::str("stub"),
            Attributes::new().with("accelerator", "gpu"),
        )
        .unwrap();
    let hits = w
        .ctx
        .search(
            "hdns://h0/registry",
            "(accelerator=gpu)",
            &SearchControls::default(),
        )
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].name, "gpu-node");
}

#[test]
fn replica_choice_is_transparent() {
    let w = world("replicas");
    w.ctx.bind("hdns://h0/entry", "via-replica-0").unwrap();
    assert_eq!(
        w.ctx.lookup("hdns://h1/entry").unwrap().as_str(),
        Some("via-replica-0"),
        "read from the other replica"
    );
}

#[test]
fn federated_atomicity_spans_systems() {
    let w = world("atomic");
    w.ctx
        .bind(
            "hdns://h0/dir",
            BoundValue::Reference(Reference::url("ldap://dir")),
        )
        .unwrap();
    w.ctx.bind("dns://global/dir/slot", "first").unwrap();
    // Second atomic bind through a *different* path to the same leaf.
    let err = w.ctx.bind("ldap://dir/slot", "second").unwrap_err();
    assert!(matches!(err, NamingError::AlreadyBound { .. }));
}

#[test]
fn broken_link_reports_missing_provider() {
    let w = world("broken");
    w.ctx
        .bind(
            "hdns://h0/dangling",
            BoundValue::Reference(Reference::url("gopher://ancient")),
        )
        .unwrap();
    let err = w.ctx.lookup("hdns://h0/dangling/x").unwrap_err();
    assert!(matches!(err, NamingError::NoProvider { scheme } if scheme == "gopher"));
}

#[test]
fn depth_guard_stops_mount_cycles() {
    let w = world("cycle");
    // h0/a → h1/b → h0/a → …
    w.ctx
        .bind(
            "hdns://h0/a",
            BoundValue::Reference(Reference::url("hdns://h1/b")),
        )
        .unwrap();
    // Bind b as a link back to a. A lookup of b itself returns the
    // reference (fine); traversals *through* it loop and must be cut off.
    w.ctx
        .bind(
            "hdns://h1/b",
            BoundValue::Reference(Reference::url("hdns://h0/a")),
        )
        .unwrap();
    let err = w.ctx.lookup("hdns://h0/a/x").unwrap_err();
    assert!(
        matches!(err, NamingError::FederationDepthExceeded { .. }),
        "got {err}"
    );
}

#[test]
fn hdns_failures_do_not_break_other_systems() {
    let w = world("isolation");
    w.ctx.bind("jini://lus/survivor", "ok").unwrap();
    w.ctx.bind("hdns://h0/doomed", "x").unwrap();
    // Take down the whole HDNS realm.
    w.hdns_realm.crash(0);
    w.hdns_realm.crash(1);
    assert!(
        w.ctx.lookup("jini://lus/survivor").is_ok(),
        "Jini unaffected"
    );
    // HDNS reads still serve from the (dead-but-addressable) replica's
    // last state or fail cleanly — either way, no panic and no cross-talk.
    let _ = w.ctx.lookup("hdns://h0/doomed");
}

#[test]
fn stored_reference_encoding_is_portable() {
    // A reference bound through one provider decodes identically from the
    // raw backend bytes — the marshalling contract between providers.
    let w = world("encoding");
    w.ctx
        .bind(
            "hdns://h0/link",
            BoundValue::Reference(Reference::url("ldap://dir")),
        )
        .unwrap();
    let raw = w.hdns_realm.lookup(0, "link").unwrap();
    let decoded = StoredValue::decode(raw.value()).unwrap().into_bound();
    assert_eq!(
        decoded.as_reference().unwrap().url_addr(),
        Some("ldap://dir")
    );
}
