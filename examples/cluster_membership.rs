//! `cluster_membership`: the membership plane managing a real HDNS
//! replica group over loopback TCP.
//!
//! Boots five `ClusterNode`s from one seed, lets gossip converge them
//! into a single view, replicates writes through arbitrary replicas,
//! then kills one node cold — no goodbye — and watches phi-accrual
//! suspicion excise it while the surviving majority keeps serving.
//! Finishes with the telemetry view: the membership gauges
//! (`rndi_cluster_*`) crossing the admin scrape.
//!
//! Run with: `cargo run --example cluster_membership`

use std::time::{Duration, Instant};

use hdns::{HdnsEntry, Op};
use rndi::cluster::MemberState;
use rndi::core::env::{keys, Environment};
use rndi::serve::{serve_cluster_hdns, HdnsCluster};

/// Poll `cond` until it holds or `budget` elapses.
fn wait_for(budget: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + budget;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn converged(cluster: &HdnsCluster, n: usize) -> bool {
    cluster.nodes().iter().all(|node| {
        node.view().map_or(0, |v| v.members.len()) == n
            && node.members().len() == n
            && node.members().iter().all(|m| m.state == MemberState::Alive)
    })
}

fn roster(cluster: &HdnsCluster) {
    for node in cluster.nodes() {
        let states: Vec<String> = node
            .members()
            .iter()
            .map(|m| format!("{}:{:?}@{}", m.name, m.state, m.incarnation))
            .collect();
        println!(
            "  {} view seq {:>2}  [{}]",
            node.name(),
            node.view().map_or(0, |v| v.seq),
            states.join(" ")
        );
    }
}

fn main() {
    // A fast failure detector keeps the demo snappy: 10ms gossip rounds
    // put suspicion around 200ms of silence and death around 400ms.
    let env = Environment::new()
        .with(keys::CLUSTER_GOSSIP_INTERVAL_MS, "10")
        .with(keys::CLUSTER_PHI_THRESHOLD, "8")
        .with(keys::CLUSTER_QUARANTINE_MS, "500");

    println!("== cluster_membership: 5 HDNS replicas, one seed, real TCP ==");
    let mut cluster = serve_cluster_hdns(5, "demo-realm", &env).expect("cluster boots");
    for node in cluster.nodes() {
        println!("  {} listening on {}", node.name(), node.endpoint());
    }

    wait_for(Duration::from_secs(15), "5-node convergence", || {
        converged(&cluster, 5)
    });
    println!("\n-- converged: one view, everyone Alive --");
    roster(&cluster);

    // Writes land through any replica and replicate to all.
    cluster
        .node(1)
        .write_sync(Op::CreateContext {
            path: "services".into(),
        })
        .expect("a primary-partition write is acknowledged");
    cluster
        .node(3)
        .write_sync(Op::Bind {
            path: "services/db".into(),
            entry: HdnsEntry::leaf(b"db:5432".to_vec()),
            overwrite: true,
        })
        .expect("a primary-partition write is acknowledged");
    wait_for(Duration::from_secs(5), "bind replication", || {
        cluster
            .nodes()
            .iter()
            .all(|n| n.lookup("services/db").is_some())
    });
    println!("\nbound services/db via node-3; visible on all 5 replicas");

    // Kill node-4 cold: sockets torn down, no leave protocol.
    let victim = cluster.take(4);
    println!("\n-- killing {} (no goodbye) --", victim.name());
    victim.kill();

    wait_for(
        Duration::from_secs(15),
        "node-4 excised from the view",
        || {
            cluster
                .nodes()
                .iter()
                .all(|n| n.view().map_or(0, |v| v.members.len()) == 4)
        },
    );
    println!("phi accrued, node-4 declared dead, view shrank to the survivors:");
    roster(&cluster);

    // 4 of 5 known members is a quorum: the survivors keep writing.
    assert!(cluster.node(0).writes_allowed());
    cluster
        .node(0)
        .write_sync(Op::Bind {
            path: "services/cache".into(),
            entry: HdnsEntry::leaf(b"cache:6379".to_vec()),
            overwrite: true,
        })
        .expect("a primary-partition write is acknowledged");
    wait_for(Duration::from_secs(5), "post-kill replication", || {
        cluster
            .nodes()
            .iter()
            .all(|n| n.lookup("services/cache").is_some())
    });
    println!("post-kill write replicated across the surviving 4");

    // Membership is telemetry: the same admin scrape that carries
    // request counters carries the rndi_cluster_* gauges.
    let scrape = cluster.scrape_all().expect("admin scrape");
    println!("\n== membership series from the merged cluster exposition ==");
    for line in scrape.exposition().lines().filter(|l| {
        l.starts_with("rndi_cluster_")
            && (l.contains("instance=\"cluster\"") || l.contains("instance=\"node-0\""))
    }) {
        println!("{line}");
    }
    let s = &scrape.signals;
    println!(
        "signals: view {} ({} alive, {} suspect, {})",
        s.view_epoch,
        s.members_alive,
        s.members_suspect,
        if s.view_converged {
            "converged"
        } else {
            "SPLIT"
        }
    );

    // The assertions that make this example CI-meaningful.
    assert_eq!(scrape.instances.len(), 4, "survivors all scraped");
    assert!(scrape.exposition().contains("rndi_cluster_members"));
    assert!(scrape
        .exposition()
        .contains("rndi_cluster_gossip_rounds_total"));
    assert!(s.view_converged, "survivors agree on the view epoch");
    assert_eq!(s.members_alive, 4);

    cluster.shutdown();
    println!("\ncluster_membership OK");
}
