//! What does the telemetry plane cost on the hot path?
//!
//! Three arms run the identical wire lookup (v2 binary envelopes over
//! loopback TCP, HDNS pipeline behind the server) and differ only in the
//! observability configuration:
//!
//! - `obs_off` — `rndi.obs.enabled=false`: no spans, no op metrics,
//!   client- or server-side. The floor.
//! - `obs_on` — the default: obs layers per pipeline (spans, histograms,
//!   counters), flight recorder disarmed (its fast path is one relaxed
//!   atomic load).
//! - `flight_armed` — obs on *and* the flight recorder armed: every
//!   pipeline-layer op additionally feeds its trailing-p99 watch.
//!
//! The budget: full telemetry must cost ≤5% over the floor on the wire
//! lookup — the wire dominates, instruments are pre-resolved, and the
//! recorder's epoch buckets are plain arrays. The deltas are printed in
//! the `bench_figures.txt` table (run with `PROBE=lat` for just that).
//!
//! The flight arm sets a huge p99 multiple so no dump ever fires
//! mid-measurement: the arm prices *armed observation*, not dump I/O.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};

use rndi_bench::loadgen::{via_transport, Transport, TransportHandle};
use rndi_core::context::ContextExt;
use rndi_core::env::{keys, Environment};
use rndi_core::op::{dispatch, NamingOp};
use rndi_core::spi::{ProviderBackend, ProviderPipeline};
use rndi_core::value::BoundValue;
use rndi_providers::HdnsProviderContext;
use rndi_shard::ShardRouter;

fn backend(name: &str, env: &Environment) -> Arc<dyn ProviderBackend> {
    let realm = hdns::HdnsRealm::new(name, 1, groupcast::StackConfig::default(), None, 5);
    HdnsProviderContext::with_env(realm, 0, name, env)
}

fn obs_off_env() -> Environment {
    Environment::new().with(keys::OBS_ENABLED, "false")
}

fn flight_env() -> Environment {
    let dir = std::env::temp_dir().join(format!("rndi-obs-overhead-{}", std::process::id()));
    Environment::new()
        .with(keys::OBS_FLIGHT_DIR, dir.to_str().expect("utf-8 temp dir"))
        // Never trip mid-bench: this arm prices observation, not dumps.
        .with(keys::OBS_FLIGHT_P99_MULT, "1000000")
}

/// (label, env) for the three arms, floor first. Order matters at run
/// time too: arming the flight recorder is process-global and sticky, so
/// the armed arm must assemble after the others finished measuring.
fn arms() -> [(&'static str, Environment); 3] {
    [
        ("obs_off", obs_off_env()),
        ("obs_on", Environment::new()),
        ("flight_armed", flight_env()),
    ]
}

fn arm(label: &str, env: &Environment) -> TransportHandle {
    let handle = via_transport(
        Transport::Tcp,
        backend(&format!("obs-bench-{label}"), env),
        env,
    )
    .expect("transport assembles");
    let seed = NamingOp::rebind("bench".into(), BoundValue::str("payload"));
    dispatch(handle.ctx().as_ref(), &seed).expect("seed write lands");
    handle
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    for (label, env) in arms() {
        let handle = arm(label, &env);
        let ctx = handle.ctx();
        let lookup = NamingOp::lookup("bench".into());
        group.bench_function(&format!("wire_lookup/{label}"), |b| {
            b.iter(|| dispatch(ctx.as_ref(), std::hint::black_box(&lookup)).unwrap())
        });
        handle.shutdown();
    }
    group.finish();
    rndi_obs::recorder::disarm();
}

/// Fastest batch wins: scheduler preemption, frequency drift, and
/// loopback hiccups only ever *add* time, so the per-arm minimum is the
/// drift-free estimate of what the arm actually costs.
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn batch_ns(run: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..60 {
        run();
    }
    start.elapsed().as_nanos() as f64 / 60.0
}

/// Alternate two live arms in rounds, best batch per arm. Each round
/// re-warms its connection before sampling — alternating at batch
/// granularity would price waking an idle server, not the op — and the
/// round structure means machine drift lands on both arms instead of
/// whichever one happened to run last.
fn alternate(run_a: &mut impl FnMut(), run_b: &mut impl FnMut()) -> (f64, f64) {
    let (mut a_ns, mut b_ns) = (Vec::with_capacity(120), Vec::with_capacity(120));
    let leg = |run: &mut dyn FnMut(), ns: &mut Vec<f64>| {
        for _ in 0..300 {
            run();
        }
        for _ in 0..20 {
            ns.push(batch_ns(run));
        }
    };
    for round in 0..8 {
        // Swap who goes first each round: background work kicked off by
        // one arm's leg (replication, flushes) otherwise always bills to
        // the same position and skews the pair.
        if round % 2 == 0 {
            leg(run_a, &mut a_ns);
            leg(run_b, &mut b_ns);
        } else {
            leg(run_b, &mut b_ns);
            leg(run_a, &mut a_ns);
        }
    }
    (best(&a_ns), best(&b_ns))
}

fn runner(handle: &TransportHandle, lookup: &NamingOp) -> impl FnMut() {
    let ctx = handle.ctx();
    let lookup = lookup.clone();
    move || {
        dispatch(ctx.as_ref(), &lookup).unwrap();
    }
}

fn overhead_table() {
    // Every delta is taken against a *co-measured* floor: the off arm
    // alternates first with the on arm, then (because arming the flight
    // recorder is process-global and sticky, so the armed phase must come
    // last) with the flight arm. The off pipelines carry no obs layers,
    // so their ops never feed the armed recorder's watches.
    let arms = arms();
    let (off_label, off_env) = &arms[0];
    let (on_label, on_env) = &arms[1];
    let off = arm(off_label, off_env);
    let on = arm(on_label, on_env);
    let lookup = NamingOp::lookup("bench".into());
    let mut run_off = runner(&off, &lookup);
    let mut run_on = runner(&on, &lookup);
    let (off_floor, on_best) = alternate(&mut run_off, &mut run_on);
    on.shutdown();

    let (flight_label, flight_env) = &arms[2];
    let flight = arm(flight_label, flight_env);
    let mut run_flight = runner(&flight, &lookup);
    let (off_floor2, flight_best) = alternate(&mut run_off, &mut run_flight);
    off.shutdown();
    flight.shutdown();
    rndi_obs::recorder::disarm();

    let rows = [
        (*off_label, off_floor, off_floor),
        (*on_label, on_best, off_floor),
        (*flight_label, flight_best, off_floor2),
    ];
    println!();
    println!("# obs overhead — wire lookup (v2 loopback), telemetry off vs on vs flight-armed (obs_overhead bench) [best-batch ns/op, deltas vs co-measured obs_off floor]");
    println!("{:>14}  {:>12}  {:>9}", "arm", "lookup", "vs_off");
    for (label, ns, floor) in &rows {
        println!(
            "{:>14}  {:>9.2} us  {:>+8.1}%",
            label,
            ns / 1_000.0,
            100.0 * (ns - floor) / floor
        );
    }
    println!("## identical HDNS pipeline and v2 wire in every arm; only the obs config");
    println!("## differs. obs_on = spans + metrics both sides; flight_armed additionally");
    println!("## feeds trailing-p99 watches. budget: full telemetry <= 5% over obs_off.");
    println!();
}

/// Keys for the sharded mixed-load arm: enough to spread across every
/// shard's rendezvous slice, few enough that the stores stay tiny and the
/// arm prices routing + wire + obs, not scan depth.
const MIX_KEYS: usize = 256;

struct MixedArm {
    cluster: rndi::serve::ShardCluster,
    ctx: Arc<ProviderPipeline<ShardRouter>>,
}

fn mixed_arm(env: &Environment) -> MixedArm {
    let cluster = rndi::serve::serve_sharded_hdns(4, env).expect("4-shard cluster");
    let ctx = cluster.connect(env).expect("routing client");
    for i in 0..MIX_KEYS {
        ctx.bind_str(&format!("k{i:04}"), "v").expect("seed bind");
    }
    MixedArm { cluster, ctx }
}

/// The shard_scale mixed workload — 70% point lookups, 30% point rebinds,
/// keys striding across all four shards' slices — as a closed-loop runner.
fn mixed_runner(arm: &MixedArm) -> impl FnMut() {
    let ctx = arm.ctx.clone();
    let keys: Vec<String> = (0..MIX_KEYS).map(|i| format!("k{i:04}")).collect();
    let mut i = 0usize;
    move || {
        let key = &keys[(i * 7919) % MIX_KEYS];
        if i % 10 < 7 {
            ctx.lookup_str(key).expect("routed lookup");
        } else {
            ctx.rebind_str(key, "w").expect("routed rebind");
        }
        i = i.wrapping_add(1);
    }
}

fn mixed_table() {
    // Same shape as the wire table: obs_off co-measures first against
    // obs_on, then against flight_armed (arming is process-global and
    // sticky, so the armed cluster assembles last).
    let arms = arms();
    let off = mixed_arm(&arms[0].1);
    let on = mixed_arm(&arms[1].1);
    let mut run_off = mixed_runner(&off);
    let mut run_on = mixed_runner(&on);
    let (off_floor, on_best) = alternate(&mut run_off, &mut run_on);
    on.cluster.shutdown();

    let flight = mixed_arm(&arms[2].1);
    let mut run_flight = mixed_runner(&flight);
    let (off_floor2, flight_best) = alternate(&mut run_off, &mut run_flight);
    off.cluster.shutdown();
    flight.cluster.shutdown();
    rndi_obs::recorder::disarm();

    let rows = [
        (arms[0].0, off_floor, off_floor),
        (arms[1].0, on_best, off_floor),
        (arms[2].0, flight_best, off_floor2),
    ];
    println!("# obs overhead — sharded mixed load 70r/30w (4 networked shards, rendezvous router), telemetry off vs on vs flight-armed (obs_overhead bench) [best-batch throughput, deltas vs co-measured obs_off floor]");
    println!("{:>14}  {:>12}  {:>9}", "arm", "mixed", "vs_off");
    for (label, ns, floor) in &rows {
        println!(
            "{:>14}  {:>7.0} op/s  {:>+8.1}%",
            label,
            1e9 / ns,
            // ns/op up => throughput down: the delta is on ops/s.
            100.0 * (floor / ns - 1.0)
        );
    }
    println!("## every op routes through the real ShardRouter to one of 4 loopback-TCP");
    println!("## HDNS shards; obs adds router + pipeline spans client-side and the server");
    println!("## span + op metrics on each shard. budget: <= 5% throughput cost enabled.");
    println!();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_obs_overhead
}

fn main() {
    if matches!(std::env::var("PROBE").as_deref(), Ok("lat")) {
        overhead_table();
        mixed_table();
        return;
    }
    benches();
    overhead_table();
    mixed_table();
}
