//! Goodput past saturation: does the admission plane hold useful work
//! steady while offered load climbs to 4× capacity, or does the server
//! keep "succeeding" at latencies nobody is still waiting for?
//!
//! A deliberately slow backend (≈5 ms per op, one event-loop shard, so
//! capacity ≈200 op/s) serves closed-loop clients over the real v2 wire
//! with the paper's 50 ms think time and a 250 ms latency budget. The
//! sweep ramps from well under the knee to 200 clients, once with the
//! overload plane off (unbounded implicit queueing — the fig5 collapse
//! shape) and once with bounded admission + adaptive concurrency on.
//! *Goodput* counts only completions inside the budget; shed ops are
//! `Overloaded` responses that failed fast at admission.
//!
//! Not a criterion harness: prints goodput tables
//! (`cargo bench -p rndi-bench --bench overload_goodput`), plus the
//! acceptance summary (goodput at 100 clients vs. peak, and saturated vs.
//! pre-saturation in-budget p95).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rndi_core::error::{NamingError, Result};
use rndi_core::name::CompoundSyntax;
use rndi_core::op::{NamingOp, OpKind, OpOutcome};
use rndi_core::spi::ProviderBackend;
use rndi_core::value::BoundValue;
use rndi_net::conn::ClientConn;
use rndi_net::proto::{self, Envelope, EnvelopeBody};
use rndi_net::{NetServer, ServerConfig};

/// Mean service time per op; one shard ⇒ capacity ≈ 1/SERVICE ≈ 200/s.
const SERVICE: Duration = Duration::from_millis(5);
/// The paper's closed-loop think time.
const THINK: Duration = Duration::from_millis(50);
/// Client latency budget: completions past this count toward throughput
/// but not goodput (and the server may shed against it).
const DEADLINE_MS: u64 = 250;
/// Admission bound for the shedding arm. By Little's law the bound *is*
/// the latency cap on a serial executor: queue wait ≤ `QUEUE_DEPTH ×
/// SERVICE` ≈ 10 ms, so saturated in-budget p95 stays within a few ×
/// of the unqueued p95 while the queue still never runs dry (offered
/// load refills it every event-loop sweep).
const QUEUE_DEPTH: usize = 2;
const CLIENTS: &[usize] = &[10, 25, 50, 100, 150, 200];
const WARMUP: Duration = Duration::from_millis(500);
const WINDOW: Duration = Duration::from_millis(1500);

/// A lookup backend that takes a fixed ≈5 ms of (blocking) service time
/// per op — the serial-executor model the admission queue bounds.
struct SlowBackend;

impl ProviderBackend for SlowBackend {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        match op.kind {
            OpKind::Lookup => {
                std::thread::sleep(SERVICE);
                Ok(OpOutcome::Value(BoundValue::str("payload")))
            }
            other => Err(NamingError::unsupported(format!("slow backend {other:?}"))),
        }
    }

    fn provider_id(&self) -> String {
        "slow".to_string()
    }

    fn compound_syntax(&self) -> CompoundSyntax {
        CompoundSyntax::path()
    }
}

enum CallOutcome {
    Ok(Duration),
    Shed,
    Timeout,
}

struct BenchConn {
    stream: TcpStream,
    machine: ClientConn,
}

fn dial(addr: &str) -> BenchConn {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    BenchConn {
        stream,
        machine: ClientConn::new(),
    }
}

/// One lock-step call: write the request, read until its response is
/// back, classify it.
fn one_call(conn: &mut BenchConn, op: &proto::WireOp, scratch: &mut [u8]) -> CallOutcome {
    let req_id = conn.machine.next_req_id();
    let env = Envelope {
        req_id,
        body: EnvelopeBody::Call {
            op: Box::new(op.clone()),
            deadline_ms: DEADLINE_MS,
            trace: None,
        },
    };
    let started = Instant::now();
    conn.stream
        .write_all(&conn.machine.encode(&env).expect("encode"))
        .expect("write call");
    loop {
        let n = conn.stream.read(scratch).expect("read response");
        assert!(n > 0, "server closed mid-call");
        let mut resps = conn.machine.receive(&scratch[..n]).expect("decode");
        if let Some(resp) = resps.pop() {
            assert!(resps.is_empty(), "lock-step: one response at a time");
            assert_eq!(resp.req_id, req_id, "lock-step response id");
            return match resp.body {
                EnvelopeBody::Ok(_) => CallOutcome::Ok(started.elapsed()),
                EnvelopeBody::Err(proto::WireError::Overloaded { .. }) => CallOutcome::Shed,
                EnvelopeBody::Err(proto::WireError::Timeout { .. }) => CallOutcome::Timeout,
                other => panic!("unexpected response: {other:?}"),
            };
        }
    }
}

#[derive(Default)]
struct Tally {
    completed: u64,
    in_budget: u64,
    shed: u64,
    timeout: u64,
    /// Nanosecond latencies of in-budget completions.
    latencies: Vec<u64>,
}

struct Point {
    clients: usize,
    throughput: f64,
    goodput: f64,
    shed_per_sec: f64,
    timeouts: u64,
    p95_ms: f64,
}

/// One sweep point: a fresh server (no AIMD state carry-over), `clients`
/// closed-loop threads, measured inside the window after warm-up.
fn run_point(clients: usize, shedding: bool) -> Point {
    let server = NetServer::with_config(
        Arc::new(SlowBackend),
        ServerConfig {
            max_conns: clients + 8,
            deadline_ms: 5_000,
            shards: 1,
            queue_depth: if shedding { QUEUE_DEPTH } else { 0 },
            adaptive: shedding,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr().to_string();
    let lookup = proto::encode_op(&NamingOp::lookup("svc".into())).expect("encode op");

    let measuring = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let addr = addr.clone();
            let lookup = lookup.clone();
            let measuring = measuring.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut conn = dial(&addr);
                let mut scratch = vec![0u8; 64 * 1024];
                let mut tally = Tally::default();
                // Stagger starts across one think period to avoid phase
                // lock, like the simnet loadgen does.
                std::thread::sleep(THINK * (i as u32) / (clients as u32).max(1));
                while !stop.load(Ordering::Relaxed) {
                    let outcome = one_call(&mut conn, &lookup, &mut scratch);
                    if measuring.load(Ordering::Relaxed) {
                        match outcome {
                            CallOutcome::Ok(took) => {
                                tally.completed += 1;
                                if took.as_millis() as u64 <= DEADLINE_MS {
                                    tally.in_budget += 1;
                                    tally.latencies.push(took.as_nanos() as u64);
                                }
                            }
                            CallOutcome::Shed => tally.shed += 1,
                            CallOutcome::Timeout => tally.timeout += 1,
                        }
                    }
                    std::thread::sleep(THINK);
                }
                tally
            })
        })
        .collect();

    std::thread::sleep(WARMUP);
    measuring.store(true, Ordering::Relaxed);
    let start = Instant::now();
    std::thread::sleep(WINDOW);
    measuring.store(false, Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed().as_secs_f64();

    let mut total = Tally::default();
    for w in workers {
        let t = w.join().expect("worker");
        total.completed += t.completed;
        total.in_budget += t.in_budget;
        total.shed += t.shed;
        total.timeout += t.timeout;
        total.latencies.extend(t.latencies);
    }
    server.shutdown();

    total.latencies.sort_unstable();
    let p95_ms = if total.latencies.is_empty() {
        0.0
    } else {
        let idx = (total.latencies.len() - 1) * 95 / 100;
        total.latencies[idx] as f64 / 1e6
    };
    Point {
        clients,
        throughput: total.completed as f64 / elapsed,
        goodput: total.in_budget as f64 / elapsed,
        shed_per_sec: total.shed as f64 / elapsed,
        timeouts: total.timeout,
        p95_ms,
    }
}

fn run_arm(label: &str, shedding: bool) -> Vec<Point> {
    let points: Vec<Point> = CLIENTS.iter().map(|&c| run_point(c, shedding)).collect();
    println!();
    println!("# overload goodput — {label} (v2 wire, capacity ≈200 op/s, budget {DEADLINE_MS} ms)");
    println!(
        "{:>8}  {:>10}  {:>10}  {:>8}  {:>9}  {:>10}",
        "clients", "ops/s", "goodput/s", "shed/s", "timeouts", "p95_ms"
    );
    for p in &points {
        println!(
            "{:>8}  {:>10.1}  {:>10.1}  {:>8.1}  {:>9}  {:>10.1}",
            p.clients, p.throughput, p.goodput, p.shed_per_sec, p.timeouts, p.p95_ms
        );
    }
    points
}

fn main() {
    let off = run_arm("shedding off", false);
    let on = run_arm("shedding on", true);

    let peak = |pts: &[Point]| pts.iter().map(|p| p.goodput).fold(0.0, f64::max);
    let at = |pts: &[Point], c: usize| {
        pts.iter()
            .min_by_key(|p| p.clients.abs_diff(c))
            .map(|p| p.goodput)
            .unwrap_or(0.0)
    };
    let presat_p95 = on.first().map(|p| p.p95_ms).unwrap_or(0.0);
    let sat_p95 = on
        .iter()
        .min_by_key(|p| p.clients.abs_diff(100))
        .map(|p| p.p95_ms)
        .unwrap_or(0.0);

    println!();
    println!(
        "## shedding off: peak goodput {:.0}/s, at-100-clients {:.0}/s ({:.0}% of peak)",
        peak(&off),
        at(&off, 100),
        100.0 * at(&off, 100) / peak(&off).max(1e-9),
    );
    println!(
        "## shedding on:  peak goodput {:.0}/s, at-100-clients {:.0}/s ({:.0}% of peak)",
        peak(&on),
        at(&on, 100),
        100.0 * at(&on, 100) / peak(&on).max(1e-9),
    );
    println!(
        "## shedding on:  in-budget p95 {:.1} ms pre-saturation → {:.1} ms at 100 clients ({:.1}×)",
        presat_p95,
        sat_p95,
        sat_p95 / presat_p95.max(1e-9),
    );
}
