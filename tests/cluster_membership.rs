//! Chaos end-to-end for the cluster membership plane (crates/cluster):
//! real `ClusterNode`s on loopback TCP — gossip, phi-accrual failure
//! detection, quarantine, view changes, and HDNS replication, with the
//! failures injected for real (killed servers, blocked endpoints).

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use hdns::{HdnsEntry, Op};
use rndi::serve::{serve_cluster_hdns, HdnsCluster};
use rndi_cluster::{ClusterConfig, ClusterNode, BACKEND_WRITE_BUDGET};
use rndi_core::attrs::Attributes;
use rndi_core::context::{Context, ContextExt, DirContext, SearchControls};
use rndi_core::env::{keys, Environment};
use rndi_core::error::NamingError;
use rndi_core::filter::Filter;
use rndi_core::value::BoundValue;
use rndi_net::proto::MemberState;
use rndi_net::NetClient;

/// The scenarios run one at a time: each boots a full TCP cluster with a
/// millisecond-scale failure detector, and several clusters contending
/// for CPU make each other's heartbeats late enough to read as death.
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Fast-failure-detector environment: 10ms gossip rounds put the phi
/// suspect bound around 180ms and the dead bound around 370ms, and a
/// 400ms quarantine keeps restart tests quick.
fn chaos_env() -> Environment {
    Environment::new()
        .with(keys::CLUSTER_GOSSIP_INTERVAL_MS, "10")
        .with(keys::CLUSTER_PHI_THRESHOLD, "8")
        .with(keys::CLUSTER_QUARANTINE_MS, "400")
}

/// Poll `cond` until it holds or `budget` elapses; panics with `what` on
/// timeout. Chaos tests assert convergence, never exact timing.
fn wait_for(budget: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + budget;
    loop {
        if cond() {
            return;
        }
        if Instant::now() >= deadline {
            panic!("timed out waiting for {what}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn view_members(node: &ClusterNode) -> Vec<String> {
    node.view().map(|v| v.members).unwrap_or_default()
}

/// Every node holds the same `n`-member view and believes all `n` alive.
/// (The *same* view: a healed minority's stale view has `n` members too,
/// for the round or two before the merged one reaches it.)
fn converged(cluster: &HdnsCluster, n: usize) -> bool {
    let reference = view_members(cluster.node(0));
    reference.len() == n
        && cluster.nodes().iter().all(|node| {
            view_members(node) == reference
                && node.members().iter().all(|m| m.state == MemberState::Alive)
                && node.members().len() == n
        })
}

fn bind_ok(node: &ClusterNode, path: &str, value: &[u8]) -> bool {
    node.write_sync(Op::Bind {
        path: path.to_string(),
        entry: HdnsEntry::leaf(value.to_vec()),
        overwrite: true,
    })
    .inspect_err(|e| eprintln!("bind {path} via {}: {e}", node.name()))
    .is_ok()
}

fn mkdir_ok(node: &ClusterNode, path: &str) -> bool {
    node.write_sync(Op::CreateContext {
        path: path.to_string(),
    })
    .inspect_err(|e| eprintln!("mkdir {path} via {}: {e}", node.name()))
    .is_ok()
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
fn five_nodes_boot_from_one_seed_and_converge() {
    let _gate = exclusive();
    let env = chaos_env();
    let cluster = serve_cluster_hdns(5, "hdns-e2e", &env).expect("boot");

    wait_for(Duration::from_secs(10), "5-node convergence", || {
        converged(&cluster, 5)
    });

    // Every node agrees on the same view, coordinated by the seed.
    let reference = view_members(cluster.node(0));
    assert_eq!(reference[0], "node-0", "seed leads the lineage");
    for node in cluster.nodes() {
        assert_eq!(view_members(node), reference);
        assert!(
            node.writes_allowed(),
            "{} should accept writes",
            node.name()
        );
    }

    // A write through any replica becomes visible on every replica
    // (the context creation replicates too).
    assert!(mkdir_ok(cluster.node(1), "services"));
    assert!(bind_ok(cluster.node(3), "services/db", b"db:5432"));
    wait_for(Duration::from_secs(5), "replicated bind", || {
        cluster.nodes().iter().all(|n| {
            n.lookup("services/db")
                .is_some_and(|e| e.value() == b"db:5432")
        })
    });

    endpoints_serve_the_whole_hdns_provider(cluster.node(2), cluster.node(4));

    cluster.shutdown();
}

#[test]
fn killed_node_is_suspected_then_excised_while_writes_continue() {
    let _gate = exclusive();
    let env = chaos_env();
    let mut cluster = serve_cluster_hdns(4, "hdns-kill", &env).expect("boot");
    wait_for(Duration::from_secs(10), "4-node convergence", || {
        converged(&cluster, 4)
    });

    // A write burst straddles the crash: writes before, during, and
    // after the kill of a non-coordinator replica.
    assert!(mkdir_ok(cluster.node(0), "burst"));
    for i in 0..5 {
        assert!(bind_ok(cluster.node(0), &format!("burst/pre-{i}"), b"v"));
    }
    let victim = cluster.take(3);
    assert_eq!(victim.name(), "node-3");
    victim.kill(); // sockets torn down, no goodbye

    // Phi accrues: the survivors demote node-3 (Suspect on the way to
    // Dead — at 10ms gossip the whole slide takes well under a second),
    // and the view shrinks to the 3 survivors.
    wait_for(Duration::from_secs(10), "node-3 declared dead", || {
        cluster.nodes().iter().all(|n| {
            n.members()
                .iter()
                .any(|m| m.name == "node-3" && m.state >= MemberState::Dead)
        })
    });
    wait_for(Duration::from_secs(10), "view excises node-3", || {
        cluster
            .nodes()
            .iter()
            .all(|n| view_members(n) == vec!["node-0", "node-1", "node-2"])
    });

    // 3 of 4 known members is still a quorum: writes keep flowing.
    assert!(bind_ok(cluster.node(1), "burst/post", b"v"));
    wait_for(Duration::from_secs(5), "post-kill write replicates", || {
        cluster
            .nodes()
            .iter()
            .all(|n| n.lookup("burst/post").is_some())
    });
    // Nothing acknowledged before the crash was lost.
    for i in 0..5 {
        for n in cluster.nodes() {
            assert!(
                n.lookup(&format!("burst/pre-{i}")).is_some(),
                "acked pre-kill write burst/pre-{i} lost on {}",
                n.name()
            );
        }
    }

    cluster.shutdown();
}

#[test]
fn restarted_node_rejoins_with_a_bumped_incarnation() {
    let _gate = exclusive();
    let env = chaos_env();
    let mut cluster = serve_cluster_hdns(3, "hdns-restart", &env).expect("boot");
    wait_for(Duration::from_secs(10), "3-node convergence", || {
        converged(&cluster, 3)
    });
    assert!(mkdir_ok(cluster.node(0), "persist"));
    assert!(bind_ok(cluster.node(0), "persist/me", b"survives"));

    let victim = cluster.take(2);
    victim.kill();
    wait_for(Duration::from_secs(10), "node-2 declared dead", || {
        cluster.nodes().iter().all(|n| {
            n.members()
                .iter()
                .any(|m| m.name == "node-2" && m.state >= MemberState::Dead)
        })
    });

    // Restart under the same name (fresh port): the first gossip
    // exchange teaches it the cluster holds it dead, it refutes with a
    // bumped incarnation, and quarantine admits it once the 400ms
    // cooldown has served.
    let seeded = chaos_env().with(keys::CLUSTER_SEED, cluster.node(0).endpoint());
    let reborn =
        ClusterNode::start(ClusterConfig::from_env("node-2", "hdns-restart", &seeded).unwrap())
            .expect("restart");
    cluster.push(reborn);

    wait_for(Duration::from_secs(15), "node-2 re-admitted", || {
        converged(&cluster, 3)
    });
    let reborn = cluster.node(2);
    assert!(
        reborn.incarnation() > 1,
        "rejoin must carry a bumped incarnation, got {}",
        reborn.incarnation()
    );
    // State transfer on the re-admitting view change restores the data.
    wait_for(Duration::from_secs(5), "state transfer to node-2", || {
        cluster
            .node(2)
            .lookup("persist/me")
            .is_some_and(|e| e.value() == b"survives")
    });

    cluster.shutdown();
}

#[test]
fn partition_keeps_one_primary_and_loses_no_acknowledged_write() {
    let _gate = exclusive();
    let env = chaos_env();
    let cluster = serve_cluster_hdns(5, "hdns-split", &env).expect("boot");
    wait_for(Duration::from_secs(10), "5-node convergence", || {
        converged(&cluster, 5)
    });
    assert!(mkdir_ok(cluster.node(0), "split"));
    assert!(bind_ok(cluster.node(0), "split/before", b"v"));
    wait_for(Duration::from_secs(5), "pre-split write replicates", || {
        cluster
            .nodes()
            .iter()
            .all(|n| n.lookup("split/before").is_some())
    });

    // Partition the seed-side minority {0,1} from the majority {2,3,4}
    // by symmetric endpoint blocks — the harder direction: the old
    // coordinator lands in the minority.
    let endpoints: Vec<String> = cluster
        .nodes()
        .iter()
        .map(|n| n.endpoint().to_string())
        .collect();
    let minority = &endpoints[..2];
    let majority = &endpoints[2..];
    for i in 0..2 {
        cluster.node(i).block_endpoints(majority);
    }
    for i in 2..5 {
        cluster.node(i).block_endpoints(minority);
    }

    // The majority elects the senior survivor (node-2) and keeps
    // writing; the minority freezes on its stale view and refuses.
    wait_for(
        Duration::from_secs(15),
        "majority forms its own view",
        || (2..5).all(|i| view_members(cluster.node(i)) == vec!["node-2", "node-3", "node-4"]),
    );
    wait_for(Duration::from_secs(10), "minority refuses writes", || {
        !cluster.node(0).writes_allowed() && !cluster.node(1).writes_allowed()
    });
    assert!(
        !bind_ok(cluster.node(0), "split/minority", b"must-not-ack"),
        "a minority write must not be acknowledged"
    );
    assert!(bind_ok(cluster.node(2), "split/majority", b"acked"));
    // A client of a minority node's endpoint is told so, promptly.
    let minority_client =
        NetClient::connect(cluster.node(1).endpoint(), &Environment::new()).expect("dial node-1");
    let asked = Instant::now();
    let refusal = minority_client.rebind_str("split/served-minority", "must-not-ack");
    assert!(
        matches!(&refusal, Err(NamingError::ServiceFailure { detail }) if detail.contains("primary partition")),
        "a minority endpoint must refuse, typed: {refusal:?}"
    );
    assert!(
        asked.elapsed() < BACKEND_WRITE_BUDGET,
        "refused, not timed out"
    );

    // Heal. Refutation bumps + the quarantine cooldown re-admit both
    // sides into one lineage again; the majority's history wins.
    for n in cluster.nodes() {
        n.clear_blocked();
    }
    wait_for(Duration::from_secs(20), "post-heal convergence", || {
        converged(&cluster, 5)
    });
    let reference = view_members(cluster.node(0));
    assert_eq!(
        reference[0], "node-2",
        "the healed lineage descends from the majority's view"
    );
    for n in cluster.nodes() {
        assert_eq!(view_members(n), reference);
    }

    // No acknowledged write was lost, on either side of the split...
    wait_for(
        Duration::from_secs(10),
        "acked writes on every node",
        || {
            cluster
                .nodes()
                .iter()
                .all(|n| n.lookup("split/before").is_some() && n.lookup("split/majority").is_some())
        },
    );
    // ...and the refused minority write never materialised.
    for n in cluster.nodes() {
        assert!(
            n.lookup("split/minority").is_none(),
            "unacknowledged minority write leaked into {}",
            n.name()
        );
        assert!(
            n.lookup("split/served-minority").is_none(),
            "write refused at node-1's endpoint leaked into {}",
            n.name()
        );
    }

    cluster.shutdown();
}
