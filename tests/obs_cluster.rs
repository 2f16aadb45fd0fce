//! End-to-end cluster telemetry acceptance: four HDNS shards behind TCP
//! servers under real load, then one [`ShardCluster::scrape_all`] pass
//! must deliver (1) a merged exposition whose cluster-rollup op counts
//! equal the sum of the per-instance counts, (2) a cross-node trace
//! assembled by id spanning the router and server legs, and (3) a flight
//! recorder that every op the shards serve reaches, and that dumps once
//! for one anomalous latency — all from the merged output and the
//! process-wide recorder, nothing asserted against a shard's private state.

use std::sync::Arc;

use rndi::core::env::keys;
use rndi::core::prelude::*;
use rndi::obs::clock::ManualClock;
use rndi::obs::{expo, recorder, FlightConfig};
use rndi::serve;

/// Observations of one op before the flight recorder's slow-op trigger
/// arms: more than the load below makes of any op at any pipeline, so
/// only the latencies this test feeds the recorder can trip it.
const MIN_SAMPLES: u64 = 256;

#[test]
fn cluster_scrape_merges_rolls_up_assembles_and_flight_records() {
    let flight_dir = std::env::temp_dir().join(format!("rndi-flight-e2e-{}", std::process::id()));
    let flight_dir = flight_dir.to_str().unwrap();
    // Armed before any pipeline, on a clock that does not move: each
    // shard's pipeline re-arms with the same dump directory, which keeps
    // this recorder.
    let flight = recorder::arm(
        FlightConfig {
            dir: flight_dir.to_string(),
            min_samples: MIN_SAMPLES,
            ..Default::default()
        },
        ManualClock::new(),
    );
    let env = Environment::new().with(keys::OBS_FLIGHT_DIR, flight_dir);

    let cluster = serve::serve_sharded_hdns(4, &env).expect("cluster starts");
    let ctx = cluster.connect(&env).unwrap();

    // Load: 32 binds, then three rounds of lookups of each.
    let names: Vec<String> = (0..32).map(|i| format!("entry-{i:02}")).collect();
    for n in &names {
        ctx.bind_str(n, format!("v-{n}").as_str()).unwrap();
    }
    for round in 0..3 {
        for n in &names {
            assert_eq!(
                ctx.lookup_str(n).unwrap().as_str(),
                Some(format!("v-{n}").as_str()),
                "round {round}"
            );
        }
    }

    // ---- (3) flight recorder: the shards' ops reach it, and one op far
    // past its trailing p99 dumps once --------------------------------
    let armed = recorder::current().expect("armed");
    assert!(Arc::ptr_eq(&armed, &flight), "the pipelines kept it");
    let served = |op| -> u64 {
        (0..4)
            .map(|i| flight.samples(&format!("hdns:hdns-shard-{i}#0"), op))
            .sum()
    };
    assert_eq!(
        (served("bind"), served("lookup")),
        (32, 96),
        "every op a shard's pipeline served reached the recorder"
    );
    assert_eq!(flight.dumps(), 0, "the load alone trips nothing");

    for _ in 0..MIN_SAMPLES {
        recorder::observe("flight-probe", "lookup", 10_000, false);
    }
    recorder::observe("flight-probe", "lookup", 10_000_000, false);
    // A second anomaly inside the cooldown, on a clock that has not moved.
    recorder::observe("flight-probe", "lookup", 10_000_000, false);
    let dumps: Vec<_> = std::fs::read_dir(flight_dir)
        .expect("flight dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("flight-"))
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one anomaly, exactly one dump");
    assert_eq!(flight.dumps(), 1);
    let dump = std::fs::read_to_string(dumps[0].path()).unwrap();
    let header = dump.lines().next().expect("dump has a header line");
    assert!(
        header.contains("\"slow_op\"")
            && header.contains("\"flight-probe\"")
            && header.contains("\"lookup\""),
        "dump header names the trigger, provider and op: {header}"
    );
    assert!(
        dump.lines().any(|l| l.contains("\"span\"")),
        "dump snapshots the trace ring"
    );
    assert!(
        dump.lines().last().unwrap().contains("metrics_delta"),
        "dump ends with the metrics delta"
    );

    // ------------------------------------- one cluster scrape pass ----
    let scrape = cluster.scrape_all().unwrap();
    assert_eq!(scrape.instances.len(), 4);
    assert!(scrape.unreachable.is_empty());

    // ---- (1) rollup conservation, asserted from the merged output ----
    let exposition = scrape.exposition();
    assert!(exposition.contains("instance=\"cluster\""));
    assert!(exposition.contains("instance=\"shard-0\""));
    let samples = expo::parse(&exposition).expect("merged exposition parses");
    let requests: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "rndi_net_requests_total")
        .collect();
    let rollups: Vec<_> = requests
        .iter()
        .filter(|s| s.label("instance") == Some("cluster"))
        .collect();
    assert!(!rollups.is_empty(), "rollup series present");
    for rollup in &rollups {
        let sum: f64 = requests
            .iter()
            .filter(|s| {
                s.label("instance").is_some_and(|i| i.starts_with("shard-"))
                    && s.label("op") == rollup.label("op")
                    && s.label("outcome") == rollup.label("outcome")
            })
            .map(|s| s.value)
            .sum();
        assert_eq!(
            rollup.value,
            sum,
            "cluster rollup for op={:?} outcome={:?} equals the per-instance sum",
            rollup.label("op"),
            rollup.label("outcome")
        );
    }
    // And the cluster really served the load: the 3×32 lookups crossed
    // the wire.
    let lookups: f64 = rollups
        .iter()
        .filter(|s| s.label("op") == Some("lookup") && s.label("outcome") == Some("ok"))
        .map(|s| s.value)
        .sum();
    assert!(lookups >= 96.0, "rollup counted the lookup load: {lookups}");

    // ---- (2) a cross-node trace assembled by id, router → server ----
    let assembled = scrape
        .traces
        .iter()
        .find(|t| {
            let layers = t.layers();
            layers.contains(&"router") && layers.contains(&"server")
        })
        .expect("some trace spans the router and a shard's server leg");
    assert!(
        scrape.trace(assembled.trace_id).is_some(),
        "assembled traces are addressable by id"
    );
    assert!(
        assembled
            .spans
            .iter()
            .all(|s| s.trace_id == assembled.trace_id),
        "assembly never mixes trace ids"
    );
    let router_depth = assembled
        .spans
        .iter()
        .find(|s| s.layer == "router")
        .map(|s| s.depth)
        .unwrap();
    let server_depth = assembled
        .spans
        .iter()
        .find(|s| s.layer == "server")
        .map(|s| s.depth)
        .unwrap();
    assert!(
        server_depth > router_depth,
        "the shard's server span nests below the router span"
    );

    // Derived signals come from the same merged view.
    assert!(
        scrape
            .signals
            .per_op
            .iter()
            .any(|o| o.op == "lookup" && o.count >= 96 && o.p50_ns > 0.0 && o.p99_ns >= o.p50_ns),
        "per-op latency quantiles derived from the rollup: {:?}",
        scrape.signals.per_op
    );
    assert!(scrape.signals.imbalance_pct >= 100.0);
    assert!(scrape.signals.headroom > 0.0 && scrape.signals.headroom <= 1.0);
    for inst in &scrape.instances {
        assert_eq!(inst.health.requests_err, 0, "{}", inst.id);
        assert!(inst.health.uptime_ms < 600_000);
    }

    cluster.shutdown();
    recorder::disarm();
    let _ = std::fs::remove_dir_all(flight_dir);
}
