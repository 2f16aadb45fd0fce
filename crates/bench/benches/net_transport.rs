//! In-process dispatch vs loopback TCP: what does the wire cost?
//!
//! Both arms run the *same* HDNS backend pipeline; the only difference is
//! the [`Transport`] in front of it — direct calls, or the binary-envelope
//! multiplexed protocol over loopback TCP. A second table measures
//! sustained ops/s over one socket: one request in flight (the baseline)
//! against 8 multiplexed callers and against a single caller pipelining
//! at depth 8. Numbers are recorded in `bench_figures.txt`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};

use rndi_bench::loadgen::{via_transport, Transport, TransportHandle};
use rndi_core::env::{keys, Environment};
use rndi_core::op::{dispatch, NamingOp};
use rndi_core::spi::ProviderBackend;
use rndi_core::value::BoundValue;
use rndi_providers::HdnsProviderContext;

const ARMS: [(&str, Transport); 2] = [
    ("in_process", Transport::InProcess),
    ("loopback", Transport::Tcp),
];

fn backend(name: &str) -> Arc<dyn ProviderBackend> {
    let realm = hdns::HdnsRealm::new(name, 1, groupcast::StackConfig::default(), None, 5);
    HdnsProviderContext::with_env(realm, 0, name, &Environment::new())
}

fn arm(label: &str, transport: Transport) -> TransportHandle {
    let handle = via_transport(
        transport,
        backend(&format!("net-bench-{label}")),
        &Environment::new(),
    )
    .expect("transport assembles");
    let seed = NamingOp::rebind("bench".into(), BoundValue::str("payload"));
    dispatch(handle.ctx().as_ref(), &seed).expect("seed write lands");
    handle
}

fn bench_transport_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport");
    let mut handles = Vec::new();
    for (label, transport) in ARMS {
        let handle = arm(label, transport);
        let ctx = handle.ctx();
        let lookup = NamingOp::lookup("bench".into());
        group.bench_function(&format!("lookup/{label}"), |b| {
            b.iter(|| dispatch(ctx.as_ref(), std::hint::black_box(&lookup)).unwrap())
        });
        let rebind = NamingOp::rebind("bench".into(), BoundValue::str("payload"));
        group.bench_function(&format!("rebind/{label}"), |b| {
            b.iter(|| dispatch(ctx.as_ref(), std::hint::black_box(&rebind)).unwrap())
        });
        handles.push(handle);
    }
    group.finish();
    for handle in handles {
        handle.shutdown();
    }
}

/// Self-measured median table for `bench_figures.txt` (same shape as the
/// readpath_scale tables).
fn median_ns(mut run: impl FnMut()) -> f64 {
    // Warm up, then sample medians of small batches.
    for _ in 0..200 {
        run();
    }
    let mut samples = Vec::with_capacity(30);
    for _ in 0..30 {
        let start = Instant::now();
        for _ in 0..50 {
            run();
        }
        samples.push(start.elapsed().as_nanos() as f64 / 50.0);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn fmt(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

fn latency_table() {
    println!();
    println!("# net transport — in-process dispatch vs loopback TCP (net_transport bench) [median ns/op]");
    println!(
        "{:>8}  {:>12}  {:>12}  {:>9}",
        "op", "in_process", "loopback", "ratio"
    );
    for (op_label, op) in [
        ("lookup", NamingOp::lookup("bench".into())),
        (
            "rebind",
            NamingOp::rebind("bench".into(), BoundValue::str("payload")),
        ),
    ] {
        let mut row = Vec::new();
        for (label, transport) in ARMS {
            let handle = arm(&format!("{label}-{op_label}"), transport);
            let ctx = handle.ctx();
            row.push(median_ns(|| {
                dispatch(ctx.as_ref(), &op).unwrap();
            }));
            handle.shutdown();
        }
        println!(
            "{:>8}  {:>12}  {:>12}  {:>8.1}x",
            op_label,
            fmt(row[0]),
            fmt(row[1]),
            row[1] / row[0],
        );
    }
    println!("## both arms run the identical HDNS pipeline; the ratio is the wire cost");
    println!("## (binary envelopes on a multiplexed connection) over in-process dispatch.");
    println!();
}

/// Sustained ops/s over ONE socket at pipeline depth 8 — first as 8
/// concurrent callers multiplexing through `NetClient`, then as a single
/// caller driving batches of 8 through the sans-IO `conn::ClientConn`
/// (pure protocol pipelining, no thread handoffs) — against that same
/// single caller with one request in flight.
fn throughput_table() {
    const DEPTH: usize = 8;
    const WINDOW: Duration = Duration::from_millis(1200);

    fn timed(mut tick: impl FnMut() -> u64) -> f64 {
        // Warm up, then count completed ops over the window.
        for _ in 0..20 {
            tick();
        }
        let start = Instant::now();
        let mut done = 0u64;
        while start.elapsed() < WINDOW {
            done += tick();
        }
        done as f64 / start.elapsed().as_secs_f64()
    }

    let op = NamingOp::rebind("bench".into(), BoundValue::str("payload"));
    let lookup = NamingOp::lookup("bench".into());

    // Multiplexed: 8 caller threads share one socket through the
    // NetClient, so up to 8 requests ride the wire concurrently.
    let mux_handle = via_transport(
        Transport::Tcp,
        backend("net-bench-tp-mux"),
        &Environment::new()
            .with(keys::NET_CLIENT_POOL_SIZE, "1")
            .with(keys::NET_CLIENT_PIPELINE_DEPTH, DEPTH.to_string()),
    )
    .expect("tcp transport");
    dispatch(mux_handle.ctx().as_ref(), &op).unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..DEPTH)
        .map(|_| {
            let ctx = mux_handle.ctx();
            let stop = stop.clone();
            let lookup = lookup.clone();
            std::thread::spawn(move || {
                let mut done = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    dispatch(ctx.as_ref(), &lookup).unwrap();
                    done += 1;
                }
                done
            })
        })
        .collect();
    let start = Instant::now();
    std::thread::sleep(WINDOW);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let mux_rate = total as f64 / start.elapsed().as_secs_f64();
    mux_handle.shutdown();

    // Pipelined: a single caller keeps `depth` requests in flight on
    // one socket via the sans-IO client — writes coalesce into one
    // syscall per batch and responses drain in bulk. depth 1 is the
    // lock-step degenerate case (protocol cost without pipelining).
    let pipe_handle = via_transport(
        Transport::Tcp,
        backend("net-bench-tp-pipe"),
        &Environment::new(),
    )
    .expect("tcp transport");
    dispatch(pipe_handle.ctx().as_ref(), &op).unwrap();
    let addr = pipe_handle
        .server_addr()
        .expect("tcp transport has an addr");
    let pipelined_rate = |depth: usize| {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let mut machine = rndi_net::conn::ClientConn::new();
        let wire_op = rndi_net::proto::encode_op(&lookup).unwrap();
        let mut scratch = vec![0u8; 64 * 1024];
        timed(|| {
            let mut wire = Vec::with_capacity(depth * 64);
            let mut waiting = 0usize;
            for _ in 0..depth {
                let env = rndi_net::proto::Envelope {
                    req_id: machine.next_req_id(),
                    body: rndi_net::proto::EnvelopeBody::Call {
                        op: Box::new(wire_op.clone()),
                        deadline_ms: 10_000,
                        trace: None,
                    },
                };
                wire.extend_from_slice(&machine.encode(&env).unwrap());
                waiting += 1;
            }
            stream.write_all(&wire).unwrap();
            let mut done = 0u64;
            while waiting > 0 {
                let n = stream.read(&mut scratch).unwrap();
                assert!(n > 0, "server closed");
                for env in machine.receive(&scratch[..n]).unwrap() {
                    assert!(matches!(env.body, rndi_net::proto::EnvelopeBody::Ok(_)));
                    waiting -= 1;
                    done += 1;
                }
            }
            done
        })
    };
    let d1_rate = pipelined_rate(1);
    let pipe_rate = pipelined_rate(DEPTH);
    pipe_handle.shutdown();

    println!("# net transport — sustained lookups/s over ONE socket, depth 1 vs depth 8 (net_transport bench)");
    println!(
        "{:>22}  {:>8}  {:>7}  {:>10}  {:>8}",
        "arm", "callers", "depth", "ops/s", "speedup"
    );
    for (arm, callers, depth, rate) in [
        ("pipelined_d1", 1, 1, d1_rate),
        ("mux_threads", DEPTH, DEPTH, mux_rate),
        ("pipelined", 1, DEPTH, pipe_rate),
    ] {
        println!(
            "{:>22}  {:>8}  {:>7}  {:>10.0}  {:>7.1}x",
            arm,
            callers,
            depth,
            rate,
            rate / d1_rate
        );
    }
    println!("## one socket in every arm. pipelined_d1 lock-steps a round trip per op;");
    println!("## mux_threads multiplexes 8 callers' requests onto the socket; pipelined keeps");
    println!("## batches of 8 in flight from one caller via the sans-IO conn layer.");
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
    targets = bench_transport_ops
}

fn main() {
    match std::env::var("PROBE").as_deref() {
        Ok("tp") => return throughput_table(),
        Ok("lat") => return latency_table(),
        _ => {}
    }
    benches();
    latency_table();
    throughput_table();
}
