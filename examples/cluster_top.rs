//! `cluster_top`: a live terminal view of a sharded RNDI cluster's
//! telemetry plane.
//!
//! Stands up a 4-shard HDNS cluster, drives mixed load through the
//! routing client, and renders a per-shard table (requests, error rate,
//! connections, headroom) refreshed from [`ShardCluster::scrape_all`] —
//! every number crosses the wire through the v2 admin vocabulary, no
//! in-process peeking. Finishes by printing the merged cluster
//! exposition and the slowest assembled cross-node trace.
//!
//! Run with: `cargo run --example cluster_top`

use rndi::core::prelude::*;
use rndi::serve;
use rndi::shard::ClusterScrape;

fn render(scrape: &ClusterScrape, tick: usize) {
    println!("-- tick {tick} ---------------------------------------------------------");
    println!(
        "{:<10} {:>9} {:>9} {:>8} {:>7} {:>9} {:>9} {:>7} {:>9}",
        "shard", "req_ok", "req_err", "err%", "conns", "headroom", "adm_hdrm", "shed", "spans"
    );
    for inst in &scrape.instances {
        let h = &inst.health;
        println!(
            "{:<10} {:>9} {:>9} {:>7.2}% {:>7} {:>8.0}% {:>8.0}% {:>7} {:>9}",
            inst.id,
            h.requests_ok,
            h.requests_err,
            100.0 * h.error_rate(),
            h.active_conns,
            100.0 * h.headroom(),
            100.0 * h.admission_headroom(),
            h.shed_total,
            h.trace_spans,
        );
    }
    for id in &scrape.unreachable {
        println!("{id:<10} UNREACHABLE");
    }
    let s = &scrape.signals;
    println!(
        "cluster    imbalance {:>5.0}%  headroom {:>3.0}%  adm_headroom {:>3.0}%  shed {}  \
         view {} ({} alive, {} suspect, {})",
        s.imbalance_pct,
        100.0 * s.headroom,
        100.0 * s.admission_headroom,
        s.shed_total,
        s.view_epoch,
        s.members_alive,
        s.members_suspect,
        if s.view_converged {
            "converged"
        } else {
            "SPLIT"
        },
    );
    for op in &s.per_op {
        println!(
            "           {:<8} n={:<6} p50 {:>8.1}us  p95 {:>8.1}us  p99 {:>8.1}us",
            op.op,
            op.count,
            op.p50_ns / 1_000.0,
            op.p95_ns / 1_000.0,
            op.p99_ns / 1_000.0
        );
    }
}

fn main() {
    let env = Environment::new();
    let cluster = serve::serve_sharded_hdns(4, &env).expect("cluster starts");
    let ctx = cluster.connect(&env).expect("router connects");
    let observer = cluster.observer().expect("observer connects");

    println!("== cluster_top: 4 shards, scraped over the data sockets ==");
    let names: Vec<String> = (0..48).map(|i| format!("svc-{i:02}")).collect();
    for n in &names {
        ctx.bind_str(n, format!("endpoint-{n}").as_str()).unwrap();
    }

    for tick in 0..3 {
        for n in &names {
            ctx.lookup_str(n).unwrap();
        }
        ctx.list(&CompositeName::empty()).unwrap();
        render(&observer.scrape_all(), tick);
    }

    let scrape = observer.scrape_all();
    println!("\n== merged cluster exposition (rollup + per-instance) ==");
    for line in scrape
        .exposition()
        .lines()
        .filter(|l| l.starts_with("rndi_net_requests_total"))
    {
        println!("{line}");
    }

    if let Some(slowest) = scrape.slowest_traces(1).first() {
        println!(
            "\n== slowest assembled trace {:#x} ({:.1}us end to end) ==",
            slowest.trace_id,
            slowest.duration_ns() as f64 / 1_000.0
        );
        for span in &slowest.spans {
            println!(
                "{:indent$}{} {} {} {:.1}us",
                "",
                span.layer,
                span.provider,
                span.op,
                span.duration_ns as f64 / 1_000.0,
                indent = (span.depth as usize) * 2
            );
        }
    }

    // The assertions that make this example CI-meaningful.
    assert_eq!(scrape.instances.len(), 4);
    assert!(scrape.unreachable.is_empty());
    assert!(scrape.exposition().contains("instance=\"cluster\""));
    assert!(scrape.exposition().contains("instance=\"shard-0\""));

    cluster.shutdown();
    println!("\ncluster_top OK");
}
