//! End-to-end observability acceptance: a federated subtree search through
//! two real-provider mounts produces ONE linked trace — federation root,
//! one child span per mount, pipeline spans below those, and server-side
//! spans at the leaves — all retrievable from the trace sink, and the
//! exposition reports counters/histograms for every provider exercised.
//! Likewise one `dns → hdns → ldap` lookup: one trace with a pipeline span
//! per naming system and a server span per backend call, and server
//! counters that advance once per call.

use std::sync::Arc;

use rndi::core::prelude::*;
use rndi::providers::common::MsClock;
use rndi::providers::{DnsFactory, HdnsFactory, JiniFactory, LdapFactory};

/// The tests below read process-wide counters as before/after deltas, so
/// they take turns.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct ZeroClock;
impl MsClock for ZeroClock {
    fn now_ms(&self) -> u64 {
        0
    }
}

/// HDNS base with two federation links: one to an LDAP directory, one to a
/// Jini lookup service. Mount names are unique to this test so trace-ring
/// lookups are immune to spans from concurrently running tests.
fn world() -> (InitialContext, Arc<ProviderRegistry>) {
    let clock: Arc<dyn MsClock> = Arc::new(ZeroClock);
    let registry = Arc::new(ProviderRegistry::new());

    // DNS anchor of the federation: `dns://obs-global` links to HDNS.
    let dns_server = rndi::dns::AuthServer::new();
    let anchor = rndi::dns::DnsName::parse("obs-global.test").unwrap();
    let mut zone = rndi::dns::Zone::new(anchor.clone());
    zone.insert(rndi::dns::ResourceRecord::txt(
        "obs-global.test",
        60,
        "hdns://obs-h0",
    ));
    dns_server.add_zone(zone);
    let dns_factory = DnsFactory::new(clock.clone());
    dns_factory.register_anchor(
        "obs-global",
        Arc::new(rndi::dns::Resolver::new(vec![dns_server])),
        anchor,
    );
    registry.register(dns_factory);

    let hdns_realm = rndi::hdns::HdnsRealm::new(
        "obs-acc",
        2,
        rndi::groupcast::StackConfig::default(),
        None,
        31,
    );
    let hdns_factory = HdnsFactory::new();
    hdns_factory.register_host("obs-h0", hdns_realm.clone(), 0);
    hdns_factory.register_host("obs-h1", hdns_realm, 1);
    registry.register(hdns_factory);

    let rlus_clock = rndi::rlus::ManualClock::new();
    let registrar = rndi::rlus::Registrar::new(rlus_clock.clone(), u64::MAX / 4, 17);
    let jini_realm = rndi::rlus::DiscoveryRealm::new();
    jini_realm.announce(
        rndi::rlus::discovery::LookupLocator::new("obs-lus", 4160),
        &["dept"],
        registrar,
    );
    registry.register(JiniFactory::new(
        jini_realm,
        rlus_clock as Arc<dyn rndi::rlus::Clock>,
    ));

    let ldap = rndi::ldap::DirectoryServer::new(rndi::ldap::ServerConfig {
        read_throttle_per_sec: None,
        ..Default::default()
    });
    ldap.connect_anonymous()
        .add(
            rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("o=obsdept").unwrap())
                .with("objectClass", "organization")
                .with("o", "obsdept"),
        )
        .unwrap();
    let ldap_factory = LdapFactory::new(clock);
    ldap_factory.register_host("obs-dir", ldap, rndi::ldap::Dn::parse("o=obsdept").unwrap());
    registry.register(ldap_factory);

    let ctx = InitialContext::new(registry.clone(), Environment::new()).unwrap();
    (ctx, registry)
}

#[test]
fn federated_search_produces_one_linked_trace_with_server_spans() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (ctx, registry) = world();

    // Two mounts under the HDNS base, plus matching entries in each leaf.
    ctx.bind(
        "hdns://obs-h0/obs-acc-jini",
        BoundValue::Reference(Reference::url("jini://obs-lus")),
    )
    .unwrap();
    ctx.bind(
        "hdns://obs-h0/obs-acc-ldap",
        BoundValue::Reference(Reference::url("ldap://obs-dir")),
    )
    .unwrap();
    ctx.bind_with_attrs(
        "jini://obs-lus/obs-node",
        BoundValue::str("stub"),
        Attributes::new().with("svc", "obs-acc"),
    )
    .unwrap();
    ctx.bind_with_attrs(
        "ldap://obs-dir/obs-printer",
        BoundValue::str("stub"),
        Attributes::new().with("svc", "obs-acc"),
    )
    .unwrap();

    // Subtree search across the federation: base first, then both mounts.
    let base = ctx.lookup_context("hdns://obs-h0").unwrap();
    let fed = FederatedContext::new(base, registry, Environment::new());
    let controls = SearchControls {
        scope: SearchScope::Subtree,
        ..Default::default()
    };
    let hits = DirContext::search(
        fed.as_ref(),
        &CompositeName::empty(),
        &Filter::parse("(svc=obs-acc)").unwrap(),
        &controls,
    )
    .unwrap();
    let names: Vec<&str> = hits.iter().map(|h| h.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["obs-acc-jini/obs-node", "obs-acc-ldap/cn=obs-printer"],
        "one hit through each mount, in mount-name order"
    );

    // One linked trace: root + per-mount children + leaf-layer spans.
    let ring = rndi::obs::trace::ring();
    let anchor = ring
        .snapshot()
        .into_iter()
        .rev()
        .find(|s| s.provider.as_ref() == "obs-acc-ldap")
        .expect("per-mount child span recorded");
    let trace = ring.trace(anchor.trace_id);

    let roots: Vec<_> = trace.iter().filter(|s| s.parent_span == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span in the trace");
    let root = roots[0];
    assert_eq!(
        (root.layer.as_ref(), root.op.as_ref()),
        ("federation", "search")
    );
    assert_eq!(root.depth, 0);

    for mount in ["obs-acc-jini", "obs-acc-ldap"] {
        let m = trace
            .iter()
            .find(|s| s.provider.as_ref() == mount)
            .unwrap_or_else(|| panic!("child span for mount {mount}"));
        assert_eq!(m.parent_span, root.span_id, "mount span links to the root");
        assert_eq!(m.depth, 1);
    }
    assert!(
        trace.iter().any(|s| s.layer == "pipeline"),
        "provider pipeline spans joined the trace"
    );
    let server = trace
        .iter()
        .find(|s| s.layer == "server")
        .expect("server-side span joined the trace");
    assert_ne!(
        server.parent_span, 0,
        "server span links under a client span"
    );

    // The exposition covers every provider exercised by the search.
    let text = rndi::obs::metrics::render();
    let samples = rndi::obs::expo::parse(&text).expect("exposition parses");
    let provider_of = |s: &rndi::obs::expo::Sample| {
        s.labels
            .iter()
            .find(|(k, _)| k == "provider")
            .map(|(_, v)| v.clone())
    };
    // Pipeline labels are provider ids ("hdns:obs-h0#0", "jini:obs-lus",
    // "ldap:obs-dir/o=obsdept"); match by scheme prefix.
    for scheme in ["hdns:", "jini:", "ldap:"] {
        assert!(
            samples.iter().any(|s| {
                s.name == "rndi_ops_total" && provider_of(s).is_some_and(|p| p.starts_with(scheme))
            }),
            "op counter exposed for {scheme} providers"
        );
        assert!(
            samples.iter().any(|s| {
                s.name.starts_with("rndi_op_duration_ns")
                    && provider_of(s).is_some_and(|p| p.starts_with(scheme))
            }),
            "latency histogram exposed for {scheme} providers"
        );
    }
}

#[test]
fn federated_lookup_produces_one_trace_with_a_server_span_per_backend_call() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (ctx, _) = world();
    ctx.bind(
        "hdns://obs-h0/obs-fed-dept",
        BoundValue::Reference(Reference::url("ldap://obs-dir")),
    )
    .unwrap();
    ctx.bind("ldap://obs-dir/obs-fed-leaf", "found").unwrap();

    let count =
        |name: &str, labels: &[(&str, &str)]| rndi::obs::metrics::counter(name, labels).get();
    let resolves = || {
        count(
            "rndi_server_ops_total",
            &[("server", "minidns"), ("op", "resolve")],
        )
    };
    let searches = || {
        count(
            "rndi_server_ops_total",
            &[("server", "dirserv"), ("op", "search")],
        )
    };
    let scans = || {
        count(
            "rndi_index_reads_total",
            &[("server", "dirserv"), ("path", "scan")],
        )
    };
    let cache = |event: &str| {
        count(
            "rndi_cache_events_total",
            &[("provider", "minidns"), ("event", event)],
        )
    };

    // Two components under the anchor: the DNS walk probes k + 1 = 3 names
    // (both NXDOMAIN, then the anchor's link), HDNS resolves the department
    // link from its replica, LDAP reads the leaf once.
    let url = "dns://obs-global/obs-fed-dept/obs-fed-leaf";
    let before = (resolves(), searches(), scans(), cache("hit"), cache("miss"));
    assert_eq!(ctx.lookup(url).unwrap().as_str(), Some("found"));
    assert_eq!(resolves() - before.0, 3, "one resolve per probed prefix");
    assert_eq!(searches() - before.1, 1, "one directory read");
    assert_eq!(scans() - before.2, 1, "served by the keyed scan path");
    assert_eq!(
        (cache("hit") - before.3, cache("miss") - before.4),
        (0, 3),
        "a cold resolver misses every probe"
    );
    // The same lookup again: same calls, all three probes from the cache.
    assert_eq!(ctx.lookup(url).unwrap().as_str(), Some("found"));
    assert_eq!(resolves() - before.0, 6);
    assert_eq!(searches() - before.1, 2);
    assert_eq!(scans() - before.2, 2);
    assert_eq!(
        (cache("hit") - before.3, cache("miss") - before.4),
        (3, 3),
        "a warm resolver hits every probe"
    );

    // One trace for the (second) lookup.
    let ring = rndi::obs::trace::ring();
    let root = ring
        .snapshot()
        .into_iter()
        .rev()
        .find(|s| {
            s.layer == "federation" && s.op == "lookup" && s.provider.starts_with("dns:obs-global")
        })
        .expect("federation root span recorded");
    assert_eq!((root.parent_span, root.depth), (0, 0));
    let trace = ring.trace(root.trace_id);
    assert_eq!(
        trace.iter().filter(|s| s.parent_span == 0).count(),
        1,
        "exactly one root span in the trace"
    );

    let pipeline_of = |scheme: &str| {
        let spans: Vec<_> = trace
            .iter()
            .filter(|s| s.layer == "pipeline" && s.provider.starts_with(scheme))
            .collect();
        assert_eq!(spans.len(), 1, "one pipeline span for {scheme}");
        assert_eq!(
            (spans[0].parent_span, spans[0].depth, spans[0].op.as_ref()),
            (root.span_id, 1, "lookup"),
            "{scheme} pipeline span hangs off the federation root"
        );
        spans[0]
    };
    let (dns, _hdns, ldap) = (
        pipeline_of("dns:"),
        pipeline_of("hdns:"),
        pipeline_of("ldap:"),
    );
    assert_eq!(
        trace.iter().filter(|s| s.layer == "pipeline").count(),
        3,
        "one hop per naming system, no more"
    );

    let server_spans = |provider: &str, op: &str| -> Vec<_> {
        trace
            .iter()
            .filter(|s| s.layer == "server" && s.provider.as_ref() == provider && s.op == op)
            .collect()
    };
    let probes = server_spans("minidns", "resolve");
    assert_eq!(probes.len(), 3, "one server span per probed prefix");
    assert!(
        probes
            .iter()
            .all(|s| s.parent_span == dns.span_id && s.depth == 2),
        "resolve spans hang off the DNS pipeline span"
    );
    let reads = server_spans("dirserv", "search");
    assert_eq!(reads.len(), 1, "one server span for the directory read");
    assert_eq!((reads[0].parent_span, reads[0].depth), (ldap.span_id, 2));
    assert_eq!(
        trace.iter().filter(|s| s.layer == "server").count(),
        4,
        "no other server calls"
    );

    // The resolver cache's behaviour is in the live exposition.
    let text = rndi::obs::metrics::render();
    let samples = rndi::obs::expo::parse(&text).expect("exposition parses");
    for event in ["hit", "miss", "eviction"] {
        assert!(
            samples.iter().any(|s| {
                s.name == "rndi_cache_events_total"
                    && s.label("provider") == Some("minidns")
                    && s.label("event") == Some(event)
            }),
            "resolver cache {event} counter exposed"
        );
    }
}

#[test]
fn ldap_list_and_rename_reach_the_server_traced_and_counted() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (ctx, _) = world();
    ctx.create_subcontext("ldap://obs-dir/ou=obs-ops").unwrap();
    ctx.bind("ldap://obs-dir/ou=obs-ops/old", "v").unwrap();

    let served = |op: &str| {
        rndi::obs::metrics::counter(
            "rndi_server_ops_total",
            &[("server", "dirserv"), ("op", op)],
        )
        .get()
    };
    // What the newest `op` the LDAP pipeline ran asked of the server: the
    // ops of the `server/dirserv/…` spans in that pipeline span's trace,
    // every one of them under it.
    let server_ops_under = |op: &str| -> Vec<String> {
        let ring = rndi::obs::trace::ring();
        let pipeline = ring
            .snapshot()
            .into_iter()
            .rev()
            .find(|s| s.layer == "pipeline" && s.provider.starts_with("ldap:obs-dir") && s.op == op)
            .unwrap_or_else(|| panic!("pipeline span for {op}"));
        ring.trace(pipeline.trace_id)
            .into_iter()
            .filter(|s| s.layer == "server" && s.provider.as_ref() == "dirserv")
            .map(|s| {
                assert_eq!(s.parent_span, pipeline.span_id, "{op}: {} span", s.op);
                s.op.to_string()
            })
            .collect()
    };

    // A listing reads the name (is it a mount?), then searches one level.
    let before = served("search");
    let names: Vec<String> = ctx
        .list("ldap://obs-dir/ou=obs-ops")
        .unwrap()
        .into_iter()
        .map(|pair| pair.name)
        .collect();
    assert_eq!(names, ["cn=old"]);
    assert_eq!(served("search") - before, 2);
    assert_eq!(server_ops_under("list"), ["search", "search"]);

    let before = served("modify_rdn");
    ctx.rename("ldap://obs-dir/ou=obs-ops/old", "ou=obs-ops/new")
        .unwrap();
    assert_eq!(served("modify_rdn") - before, 1, "the rename is counted");
    let renames = server_ops_under("rename")
        .iter()
        .filter(|op| *op == "modify_rdn")
        .count();
    assert_eq!(renames, 1, "and is in the caller's trace");
    assert_eq!(
        ctx.lookup("ldap://obs-dir/ou=obs-ops/new")
            .unwrap()
            .as_str(),
        Some("v")
    );
}
