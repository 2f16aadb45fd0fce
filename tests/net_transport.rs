//! Network transport acceptance: the same naming semantics over loopback
//! TCP as in-process, with one linked trace spanning both sides of the
//! wire, and client-pipeline retry recovering from a crashed-and-restarted
//! server.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use rndi::core::context::{Context, ContextExt, DirContext};
use rndi::core::env::{keys, Environment};
use rndi::core::error::NamingError;
use rndi::core::filter::Filter;
use rndi::core::name::CompositeName;
use rndi::core::prelude::*;
use rndi::core::spi::ProviderBackend;
use rndi::net::{NetClient, NetServer, ServerConfig};
use rndi::providers::common::MsClock;
use rndi::providers::{HdnsProviderContext, JiniProviderContext, LdapProviderContext};

fn hdns_realm(name: &str) -> rndi::hdns::HdnsRealm {
    rndi::hdns::HdnsRealm::new(name, 2, rndi::groupcast::StackConfig::default(), None, 7)
}

/// Replica 0 of a fresh two-replica realm behind its own server.
fn hdns_server(name: &str) -> NetServer {
    let pipeline = HdnsProviderContext::new(hdns_realm(name), 0, name);
    NetServer::bind(pipeline, &Environment::new()).expect("server starts")
}

fn client_env() -> Environment {
    Environment::new()
        .with(keys::RETRY_MAX_ATTEMPTS, "5")
        .with(keys::RETRY_BACKOFF_MS, "50")
}

#[test]
fn hdns_bind_lookup_search_over_loopback() {
    let server = hdns_server("net-e2e");
    let remote = NetClient::connect(server.local_addr().to_string(), &client_env()).unwrap();

    // Bind (with attributes), lookup, list, and search — all through the
    // client pipeline, over the wire, into the HDNS replica.
    remote.bind_str("plain", "v1").unwrap();
    remote
        .bind_with_attrs(
            &"printer".into(),
            BoundValue::str("laser-3"),
            Attributes::new().with("building", "C").with("dpi", "1200"),
        )
        .unwrap();

    assert_eq!(remote.lookup_str("plain").unwrap().as_str(), Some("v1"));
    assert_eq!(
        remote.lookup_str("printer").unwrap().as_str(),
        Some("laser-3")
    );

    let names: Vec<String> = remote
        .list(&CompositeName::empty())
        .unwrap()
        .into_iter()
        .map(|p| p.name)
        .collect();
    assert_eq!(names, vec!["plain", "printer"]);

    let hits = remote
        .search(
            &CompositeName::empty(),
            &Filter::parse("(building=C)").unwrap(),
            &SearchControls::default(),
        )
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].name, "printer");
    assert_eq!(hits[0].attrs.get("dpi").unwrap().first_str(), Some("1200"));

    // Errors cross the wire typed, not as opaque transport failures.
    assert!(matches!(
        remote.lookup_str("missing"),
        Err(NamingError::NameNotFound { .. })
    ));
    assert!(matches!(
        remote.bind_str("plain", "dup"),
        Err(NamingError::AlreadyBound { .. })
    ));

    server.shutdown();
}

#[test]
fn one_linked_trace_spans_client_and_server() {
    let server = hdns_server("net-trace");
    let remote = NetClient::connect(server.local_addr().to_string(), &client_env()).unwrap();
    // Sibling tests in this binary record client spans too (some still in
    // flight, their roots not yet in the ring): anchor on this endpoint's.
    let client_label = format!("net-client:{}", server.local_addr());

    remote.bind_str("traced-net", "x").unwrap();
    assert_eq!(remote.lookup_str("traced-net").unwrap().as_str(), Some("x"));

    // Anchor on the net client's span for the lookup, then walk its trace:
    // client root (pipeline layer) -> ... -> net "client" span -> "server"
    // span on the far side -> the server-side backend pipeline beneath it.
    let ring = rndi::obs::trace::ring();
    let client_span = ring
        .snapshot()
        .into_iter()
        .rev()
        .find(|s| s.layer == "client" && *s.provider == *client_label && s.op == "lookup")
        .expect("net client span recorded");
    let trace = ring.trace(client_span.trace_id);

    let roots: Vec<_> = trace.iter().filter(|s| s.parent_span == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span in the trace");
    assert_eq!(
        roots[0].layer, "pipeline",
        "the client-side pipeline owns the root span"
    );

    let server_span = trace
        .iter()
        .find(|s| s.layer == "server")
        .expect("server span joined the client's trace across the wire");
    assert_eq!(
        server_span.parent_span, client_span.span_id,
        "server span is a direct child of the net client span"
    );
    assert!(server_span.provider.starts_with("net:hdns:net-trace"));

    assert!(
        trace
            .iter()
            .any(|s| s.parent_span == server_span.span_id && s.layer == "pipeline"),
        "server-side backend pipeline nests under the server span"
    );

    server.shutdown();
}

#[test]
fn retry_recovers_from_server_crash_and_restart() {
    let realm = hdns_realm("net-crash");
    let backend: Arc<dyn ProviderBackend> =
        HdnsProviderContext::with_env(realm, 0, "net-crash", &Environment::new());
    let server = NetServer::bind(backend.clone(), &Environment::new()).unwrap();
    let addr = server.local_addr();

    let remote = NetClient::connect(addr.to_string(), &client_env()).unwrap();
    remote.bind_str("survivor", "v").unwrap();
    assert_eq!(remote.lookup_str("survivor").unwrap().as_str(), Some("v"));

    // Crash the server mid-flight (sockets torn down, pooled client
    // connections now dead), then restart it on the same address after a
    // delay that forces the client through at least one failed attempt.
    server.abort();
    let restarter = std::thread::spawn(move || {
        // A sleep, because the claim is about a real socket: the port stays
        // dead long enough for the client's first redial to fail.
        std::thread::sleep(Duration::from_millis(150));
        // The freed port can linger; keep trying until the bind lands (the
        // kernel gives no event for a port coming free, hence the sleep).
        for _ in 0..100 {
            let config = ServerConfig {
                listen: addr.to_string(),
                max_conns: 16,
                deadline_ms: 5_000,
                shards: 1,
                ..ServerConfig::default()
            };
            match NetServer::with_config(backend.clone(), config) {
                Ok(server) => return server,
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        panic!("could not rebind {addr}");
    });

    // The pooled connection is stale and the first redial(s) hit a dead
    // port; the pipeline's retry layer turns that into a recovery once the
    // restarted server is up.
    let v = remote.lookup_str("survivor").expect("retry recovered");
    assert_eq!(v.as_str(), Some("v"));

    restarter.join().unwrap().shutdown();
}

#[test]
fn ldap_and_jini_served_over_loopback() {
    // LDAP behind the net server.
    struct ZeroClock;
    impl MsClock for ZeroClock {
        fn now_ms(&self) -> u64 {
            0
        }
    }
    let directory = rndi::ldap::DirectoryServer::new(rndi::ldap::ServerConfig {
        read_throttle_per_sec: None,
        ..Default::default()
    });
    directory
        .connect_anonymous()
        .add(
            rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("o=netdept").unwrap())
                .with("objectClass", "organization")
                .with("o", "netdept"),
        )
        .unwrap();
    let ldap_pipeline = LdapProviderContext::new(
        directory.connect_anonymous(),
        rndi::ldap::Dn::parse("o=netdept").unwrap(),
        Arc::new(ZeroClock),
        "net-dir",
    );
    let ldap_server = NetServer::bind(ldap_pipeline, &Environment::new()).unwrap();
    let ldap_remote =
        NetClient::connect(ldap_server.local_addr().to_string(), &client_env()).unwrap();
    ldap_remote
        .bind_with_attrs(
            &"scanner".into(),
            BoundValue::str("flatbed"),
            Attributes::new().with("room", "217"),
        )
        .unwrap();
    assert_eq!(
        ldap_remote.lookup_str("scanner").unwrap().as_str(),
        Some("flatbed")
    );
    let hits = ldap_remote
        .search(
            &CompositeName::empty(),
            &Filter::parse("(room=217)").unwrap(),
            &SearchControls::default(),
        )
        .unwrap();
    assert_eq!(hits.len(), 1);
    ldap_server.shutdown();

    // The rlus registrar (Jini analog) behind the net server.
    let rlus_clock = rndi::rlus::ManualClock::new();
    let registrar = rndi::rlus::Registrar::new(rlus_clock.clone(), u64::MAX / 4, 23);
    let jini_pipeline =
        JiniProviderContext::new(registrar, rlus_clock, Environment::new(), "net-lus");
    let jini_server = NetServer::bind(jini_pipeline, &Environment::new()).unwrap();
    let jini_remote =
        NetClient::connect(jini_server.local_addr().to_string(), &client_env()).unwrap();
    jini_remote.bind_str("worker", "stub-7").unwrap();
    assert_eq!(
        jini_remote.lookup_str("worker").unwrap().as_str(),
        Some("stub-7")
    );
    jini_server.shutdown();
}

#[test]
fn local_only_ops_and_deadlines_fail_cleanly() {
    let server = hdns_server("net-edge");
    let remote = NetClient::connect(server.local_addr().to_string(), &client_env()).unwrap();

    // Live listener registration cannot cross the wire: rejected before a
    // byte is sent, not smuggled as a serialization failure.
    let listener = rndi::core::event::CollectingListener::new();
    assert!(matches!(
        remote.add_listener(&CompositeName::empty(), listener),
        Err(NamingError::NotSupported { .. })
    ));

    // A dead endpoint surfaces as a transient error (retry fuel), not a
    // panic or a hang: bind a port, drop the listener, dial it.
    let dead = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = dead.local_addr().unwrap();
    drop(dead);
    let env = Environment::new()
        .with(keys::RETRY_MAX_ATTEMPTS, "1")
        .with(keys::NET_DEADLINE_MS, "300");
    let unreachable = NetClient::connect(dead_addr.to_string(), &env).unwrap();
    let err = unreachable.lookup_str("x").unwrap_err();
    assert!(
        matches!(
            err,
            NamingError::ServiceFailure { .. } | NamingError::Timeout { .. }
        ),
        "dead endpoint maps to a transient error, got {err:?}"
    );

    server.shutdown();
}
