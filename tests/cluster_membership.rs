//! The cluster membership plane over real sockets: three `ClusterNode`s
//! on loopback TCP boot from one seed, converge, and serve the whole HDNS
//! provider through their endpoints. Crashes, restarts, partitions and
//! write loss are checked on the seeded simulation in
//! `crates/cluster/tests/sim_chaos.rs`, which runs the same node logic with
//! no sockets.

use std::time::{Duration, Instant};

use rndi::serve::serve_cluster_hdns;
use rndi_cluster::ClusterNode;
use rndi_cluster::MemberState;
use rndi_core::attrs::Attributes;
use rndi_core::context::{Context, ContextExt, DirContext, SearchControls};
use rndi_core::env::{keys, Environment};
use rndi_core::error::NamingError;
use rndi_core::filter::Filter;
use rndi_core::value::BoundValue;
use rndi_net::NetClient;

/// Poll `cond` until it holds or `budget` elapses; panics with `what` on
/// timeout.
fn wait_for(budget: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + budget;
    loop {
        if cond() {
            return;
        }
        if Instant::now() >= deadline {
            panic!("timed out waiting for {what}");
        }
        // A sleep, because this is the one real-socket smoke test: the
        // nodes gossip over TCP on their own threads and expose no event
        // to wait on (the seeded simulation covers membership without one).
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn view_members(node: &ClusterNode) -> Vec<String> {
    node.view().map(|v| v.members).unwrap_or_default()
}

/// A cluster node's endpoint is an HDNS endpoint like any other: what a
/// client writes through `a`'s socket, a client of `b`'s reads, searches,
/// renames and removes — every op kind the transport carries. Neither
/// node coordinates the group, so each write waits for its ordered copy
/// to come back through the very server that is serving it.
fn endpoints_serve_the_whole_hdns_provider(a: &ClusterNode, b: &ClusterNode) {
    let dial = |node: &ClusterNode| {
        NetClient::connect(node.endpoint(), &Environment::new()).expect("dial the node")
    };
    let (a, b, replica_b) = (dial(a), dial(b), b);
    a.create_subcontext(&"grid".into()).unwrap();
    a.bind_with_attrs(
        &"grid/n1".into(),
        BoundValue::str("host-1"),
        Attributes::new().with("os", "linux"),
    )
    .unwrap();
    wait_for(Duration::from_secs(5), "grid/n1 reaches b", || {
        replica_b.lookup("grid/n1").is_some()
    });

    assert_eq!(b.lookup_str("grid/n1").unwrap().as_str(), Some("host-1"));
    let attrs = b.get_attributes(&"grid/n1".into()).unwrap();
    assert_eq!(attrs.get("os").unwrap().first_str(), Some("linux"));
    let hits = b
        .search(
            &"grid".into(),
            &Filter::parse("(os=linux)").unwrap(),
            &SearchControls::default(),
        )
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].name, "n1");

    b.rename(&"grid/n1".into(), &"grid/n2".into()).unwrap();
    let bound = b.list_bindings(&"grid".into()).unwrap();
    assert_eq!(bound.len(), 1);
    assert_eq!(
        (bound[0].name.as_str(), bound[0].value.as_str()),
        ("n2", Some("host-1"))
    );
    assert!(matches!(
        b.destroy_subcontext(&"grid".into()),
        Err(NamingError::ContextNotEmpty { .. })
    ));
    b.unbind_str("grid/n2").unwrap();
    b.destroy_subcontext(&"grid".into()).unwrap();
    assert!(matches!(
        b.lookup_str("grid/n2"),
        Err(NamingError::NameNotFound { .. })
    ));
}

#[test]
fn three_nodes_boot_from_a_seed_and_serve_the_whole_hdns_provider() {
    let env = Environment::new().with(keys::CLUSTER_GOSSIP_INTERVAL_MS, "10");
    let cluster = serve_cluster_hdns(3, "hdns-e2e", &env).expect("boot");
    wait_for(Duration::from_secs(10), "3-node convergence", || {
        let reference = view_members(cluster.node(0));
        reference.len() == 3
            && cluster.nodes().iter().all(|node| {
                view_members(node) == reference
                    && node.writes_allowed()
                    && node.members().iter().all(|m| m.state == MemberState::Alive)
            })
    });
    endpoints_serve_the_whole_hdns_provider(cluster.node(1), cluster.node(2));
    cluster.shutdown();
}
