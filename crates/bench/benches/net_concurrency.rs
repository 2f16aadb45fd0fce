//! Connection-scale bench: can one server core hold 1k+ concurrent
//! sockets and still move requests?
//!
//! The thread-per-connection v1 server capped out at `max_conns` OS
//! threads; the v2 shard-per-core event loop holds each connection as a
//! small state machine instead. This bench opens `THREADS × CONNS_PER`
//! raw v2 connections (default 16 × 64 = 1024) against one `NetServer`,
//! then drives pipelined lookups across *every* connection for a fixed
//! window — so all 1k+ sockets are concurrently established and all of
//! them carry traffic. Uses the sans-IO `conn::ClientConn` directly so
//! the client side costs nearly nothing and the server is the bottleneck
//! being measured.
//!
//! Not a criterion harness: prints a sustained-throughput table
//! (`cargo bench -p rndi-bench --bench net_concurrency`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rndi_core::env::Environment;
use rndi_core::op::NamingOp;
use rndi_core::spi::ProviderBackend;
use rndi_core::value::BoundValue;
use rndi_net::conn::ClientConn;
use rndi_net::proto::{self, Envelope, EnvelopeBody};
use rndi_net::{NetServer, ServerConfig};
use rndi_providers::HdnsProviderContext;

const THREADS: usize = 16;
const CONNS_PER: usize = 64;
/// Requests kept in flight on each connection while it is being driven.
const DEPTH: usize = 8;
const WINDOW: Duration = Duration::from_millis(2000);

struct BenchConn {
    stream: TcpStream,
    machine: ClientConn,
}

fn dial(addr: &str) -> BenchConn {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    BenchConn {
        stream,
        machine: ClientConn::new(),
    }
}

/// Write `DEPTH` pipelined lookups, then read until every response is
/// back. Returns the number of completed ops.
fn drive_batch(conn: &mut BenchConn, op: &proto::WireOp, scratch: &mut [u8]) -> u64 {
    let mut wire = Vec::with_capacity(DEPTH * 64);
    let mut waiting = std::collections::HashSet::new();
    for _ in 0..DEPTH {
        let req_id = conn.machine.next_req_id();
        let env = Envelope {
            req_id,
            body: EnvelopeBody::Call {
                op: Box::new(op.clone()),
                deadline_ms: 10_000,
                trace: None,
            },
        };
        wire.extend_from_slice(&conn.machine.encode(&env).expect("encode"));
        waiting.insert(req_id);
    }
    conn.stream.write_all(&wire).expect("write batch");
    let mut done = 0u64;
    while !waiting.is_empty() {
        let n = conn.stream.read(scratch).expect("read batch");
        assert!(n > 0, "server closed mid-batch");
        for env in conn.machine.receive(&scratch[..n]).expect("decode") {
            assert!(waiting.remove(&env.req_id), "unknown req_id");
            match env.body {
                EnvelopeBody::Ok(_) => done += 1,
                other => panic!("lookup failed on the wire: {other:?}"),
            }
        }
    }
    done
}

fn main() {
    let realm = hdns::HdnsRealm::new(
        "net-conc-bench",
        1,
        groupcast::StackConfig::default(),
        None,
        5,
    );
    let backend: Arc<dyn ProviderBackend> =
        HdnsProviderContext::with_env(realm, 0, "net-conc-bench", &Environment::new());
    // Seed the key every connection will look up.
    backend
        .execute(&NamingOp::rebind(
            "bench".into(),
            BoundValue::str("payload"),
        ))
        .expect("seed write");

    let total_conns = THREADS * CONNS_PER;
    let server = NetServer::with_config(
        backend,
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            max_conns: total_conns + 8,
            deadline_ms: 30_000,
            shards: 0, // auto: min(cores, 4)
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr().to_string();

    let lookup = proto::encode_op(&NamingOp::lookup("bench".into())).expect("encode op");
    let stop = Arc::new(AtomicBool::new(false));
    let established = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let addr = addr.clone();
            let lookup = lookup.clone();
            let stop = stop.clone();
            let established = established.clone();
            std::thread::spawn(move || {
                let mut conns: Vec<BenchConn> = (0..CONNS_PER).map(|_| dial(&addr)).collect();
                let mut scratch = vec![0u8; 64 * 1024];
                // Prove every socket is live (and get past negotiation)
                // before the measured window starts.
                for conn in conns.iter_mut() {
                    drive_batch(conn, &lookup, &mut scratch);
                    established.fetch_add(1, Ordering::Relaxed);
                }
                while established.load(Ordering::Relaxed) < (THREADS * CONNS_PER) as u64 {
                    std::thread::yield_now();
                }
                // Measured window: round-robin every connection with a
                // pipelined batch so all of them carry traffic.
                let mut ops = 0u64;
                'outer: loop {
                    for conn in conns.iter_mut() {
                        if stop.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        ops += drive_batch(conn, &lookup, &mut scratch);
                    }
                }
                ops
            })
        })
        .collect();

    // Wait for all connections to be up, then time the window.
    while established.load(Ordering::Relaxed) < total_conns as u64 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let start = Instant::now();
    std::thread::sleep(WINDOW);
    stop.store(true, Ordering::Relaxed);
    let total_ops: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    let elapsed = start.elapsed().as_secs_f64();
    let rate = total_ops as f64 / elapsed;

    println!("# net concurrency — sustained throughput at 1k+ concurrent connections (net_concurrency bench)");
    println!(
        "{:>8}  {:>8}  {:>6}  {:>10}  {:>12}  {:>14}",
        "conns", "threads", "depth", "total_ops", "ops/s", "ops/s per conn"
    );
    println!(
        "{:>8}  {:>8}  {:>6}  {:>10}  {:>12.0}  {:>14.1}",
        total_conns,
        THREADS,
        DEPTH,
        total_ops,
        rate,
        rate / total_conns as f64
    );
    println!("## all {total_conns} sockets concurrently established against one v2 server");
    println!("## (shard-per-core event loop), every socket carrying pipelined lookups.");
    println!();

    server.shutdown();
}
