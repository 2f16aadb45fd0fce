//! The per-layer probes: each layer's public functions, called directly
//! on populated worlds and timed from here.
//!
//! The probes are the same whatever workload the traced run belongs to, so
//! a layer figure means one thing in every record. Nanosecond-scale calls
//! are timed in batches ([`per_call_ns`]), microsecond-scale ones singly
//! ([`p50_us`]); both report their least disturbed run.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::name::CompositeName;
use rndi_core::op::{dispatch, NamingOp, OpKind, OpOutcome};
use rndi_core::spi::{ProviderBackend, ProviderPipeline, WireFormat};
use rndi_core::url::RndiUrl;
use rndi_core::value::BoundValue;
use rndi_net::conn::{ClientConn, ResponseBody, ServerConn};
use rndi_net::proto::{self, bin, Envelope, EnvelopeBody};
use rndi_providers::common::RlusClock;
use rndi_providers::{
    DnsProviderContext, HdnsProviderContext, JiniProviderContext, LdapProviderContext,
};

use crate::alloc::count_during;
use crate::gen::{value_of, Generator, Rng};
use crate::measure::{median, process_cpu, Kind, Recorder};
use crate::report::Metrics;
use crate::workloads::{
    drive, wire_generator, FedResolve, ReplicaWrite, WireLockstep, WirePipelined, Workload,
};
use crate::world::{self, FedWorld, ReplicaWorld, WireWorld};

/// Every per-layer metric a traced run reports, in order, with its unit.
/// `BENCHMARK.json` lists the same names (a unit test holds them together).
pub const PER_LAYER: [(&str, &str); 59] = [
    ("client.ops_per_s", "1/s"),
    ("client.read_p50_us", "us"),
    ("client.write_p50_us", "us"),
    ("client.cpu_us_per_op", "us"),
    ("client.read_p99_us", "us"),
    ("client.write_p99_us", "us"),
    ("client.list_p50_us", "us"),
    ("client.jini_bind_p50_us", "us"),
    ("client.slice_spread", "ratio"),
    ("net.loopback_rtt_floor_us", "us"),
    ("net.wire_over_floor", "ratio"),
    ("net.proto.encode_ns", "ns"),
    ("net.proto.decode_ns", "ns"),
    ("net.proto.envelope_ns", "ns"),
    ("net.proto.bytes_per_op", "count"),
    ("net.conn.server_receive_ns", "ns"),
    ("net.conn.client_roundtrip_ns", "ns"),
    ("net.inproc.lookup_us", "us"),
    ("net.inproc.rebind_us", "us"),
    ("net.wire_residual_us", "us"),
    ("net.wire_rebind_residual_us", "us"),
    ("net.allocs_per_op", "count"),
    ("net.server.wake_p50_us", "us"),
    ("net.server.idle_cpu_share", "ratio"),
    ("core.name.parse_ns", "ns"),
    ("core.initial.url_dispatch_ns", "ns"),
    ("core.spi.pipeline_self_us", "us"),
    ("core.spi.pipeline_rebind_self_us", "us"),
    ("core.spi.allocs_per_op", "count"),
    ("core.federation.self_us", "us"),
    ("core.federation.hops_per_lookup", "count"),
    ("providers.hdns.self_us", "us"),
    ("providers.dns.self_us", "us"),
    ("providers.ldap.self_us", "us"),
    ("providers.jini.self_us", "us"),
    ("providers.jini.registrar_ops_per_bind", "count"),
    ("providers.jini.strict_over_relaxed", "ratio"),
    ("rlus.lookup_ns", "ns"),
    ("rlus.register_ns", "ns"),
    ("ldap.search_us", "us"),
    ("ldap.modify_us", "us"),
    ("dns.resolve_us", "us"),
    ("hdns.store.get_ns", "ns"),
    ("hdns.store.apply_ns", "ns"),
    ("hdns.store.list_us", "us"),
    ("hdns.store.snapshot_2k_ms", "ms"),
    ("hdns.store.snapshot_20k_ms", "ms"),
    ("hdns.realm.lookup_ns", "ns"),
    ("hdns.realm.rebind1_us", "us"),
    ("hdns.realm.rebind3_us", "us"),
    ("groupcomm.write_self_us", "us"),
    ("groupcomm.drive_rounds_per_write", "count"),
    ("obs.overhead_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.sum_residual_share", "ratio"),
    ("trace.spans_per_op", "count"),
    ("host.calib_spread", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.invol_ctxsw_per_s", "1/s"),
];

const BATCHES: usize = 7;

/// ns per call: the fastest of [`BATCHES`] batches of `per_batch` calls
/// (after one batch to warm up). A disturbance of the host only ever adds
/// time, so the fastest batch is the one closest to the code's own cost.
/// `f` gets a running index to vary its input.
fn per_call_ns(per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..per_batch {
        f(i);
    }
    (0..BATCHES)
        .map(|b| {
            let start = Instant::now();
            for i in 0..per_batch {
                f(b * per_batch + i);
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .fold(f64::MAX, f64::min)
}

/// p50 in µs of individually timed calls: `n` calls (after `n / 10` to
/// warm up) in five consecutive runs, the lowest run's p50 — for the same
/// reason.
fn p50_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..n / 10 {
        f(i);
    }
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    samples
        .chunks(n.div_ceil(5).max(1))
        .map(median)
        .fold(f64::MAX, f64::min)
}

fn io_err(e: std::io::Error) -> NamingError {
    NamingError::service(format!("probe socket: {e}"))
}

fn must<T>(r: Result<T>) -> T {
    r.expect("probe operation on a populated world succeeds")
}

/// Every layer probe. They are the same whatever workload the traced run
/// belongs to — the driver wants every per-layer metric from every traced
/// run — except that `wire_lockstep` hands in its own p50s (`lockstep_p50`)
/// for the figures defined from them.
pub fn run_all(scratch: &Path, lockstep_p50: Option<(f64, f64)>, m: &mut Metrics) -> Result<()> {
    net(lockstep_p50, m)?;
    core(m);
    fed(m)?;
    replica(scratch, m)?;
    Ok(())
}

// -------------------------------------------------------------- net --

/// What the wire path spends on one operation of a given shape, measured
/// on in-memory bytes.
struct CodecCosts {
    encode_ns: f64,
    decode_ns: f64,
    envelope_ns: f64,
    server_receive_ns: f64,
    client_roundtrip_ns: f64,
    request_bytes: usize,
    response_bytes: usize,
}

impl CodecCosts {
    /// codec + connection framing per round trip, counted once, in µs.
    fn wire_cpu_us(&self) -> f64 {
        (self.encode_ns + self.decode_ns + self.server_receive_ns + self.client_roundtrip_ns
            - self.envelope_ns)
            / 1e3
    }
}

fn call_envelope(req_id: u64, op: &NamingOp) -> Envelope {
    Envelope {
        req_id,
        body: EnvelopeBody::Call {
            op: Box::new(must(proto::encode_op(op))),
            deadline_ms: 10_000,
            trace: None,
        },
    }
}

fn codec_costs(op: &NamingOp, outcome: &OpOutcome) -> CodecCosts {
    const N: usize = 20_000;
    let request = call_envelope(1, op);
    let wire_op = must(proto::encode_op(op));
    let wire_out = must(proto::encode_outcome(outcome));
    let response = Envelope {
        req_id: 1,
        body: EnvelopeBody::Ok(wire_out.clone()),
    };
    let request_bytes = must(bin::encode_envelope(&request));
    let response_bytes = must(bin::encode_envelope(&response));

    let encode_ns = per_call_ns(N, |i| {
        let req = call_envelope(i as u64, std::hint::black_box(op));
        std::hint::black_box(must(bin::encode_envelope(&req)));
        let resp = Envelope {
            req_id: i as u64,
            body: EnvelopeBody::Ok(must(proto::encode_outcome(std::hint::black_box(outcome)))),
        };
        std::hint::black_box(must(bin::encode_envelope(&resp)));
    });
    let decode_ns = per_call_ns(N, |_| {
        std::hint::black_box(must(bin::decode_envelope(std::hint::black_box(
            &request_bytes,
        ))));
        std::hint::black_box(must(proto::decode_op(std::hint::black_box(&wire_op))));
        std::hint::black_box(must(bin::decode_envelope(std::hint::black_box(
            &response_bytes,
        ))));
        std::hint::black_box(must(proto::decode_outcome(std::hint::black_box(&wire_out))));
    });
    let envelope_ns = per_call_ns(N, |_| {
        std::hint::black_box(must(bin::encode_envelope(std::hint::black_box(&request))));
        std::hint::black_box(must(bin::encode_envelope(std::hint::black_box(&response))));
        std::hint::black_box(must(bin::decode_envelope(std::hint::black_box(
            &request_bytes,
        ))));
        std::hint::black_box(must(bin::decode_envelope(std::hint::black_box(
            &response_bytes,
        ))));
    });

    let frame = |payload: &[u8]| {
        let mut f = (payload.len() as u32).to_be_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    };
    let (request_frame, response_frame) = (frame(&request_bytes), frame(&response_bytes));

    let mut server = ServerConn::new();
    must(server.receive(&proto::PREAMBLE_V2));
    server.consume_out(server.pending_out().len());
    let server_receive_ns = per_call_ns(N, |_| {
        for inbound in must(server.receive(std::hint::black_box(&request_frame))) {
            must(server.push_response(inbound.req_id, ResponseBody::Ok(wire_out.clone())));
        }
        server.consume_out(server.pending_out().len());
    });

    let mut client = ClientConn::new();
    must(client.encode(&request));
    must(client.receive(&proto::PREAMBLE_V2));
    let client_roundtrip_ns = per_call_ns(N, |_| {
        std::hint::black_box(must(client.encode(std::hint::black_box(&request))));
        std::hint::black_box(must(client.receive(std::hint::black_box(&response_frame))));
    });

    CodecCosts {
        encode_ns,
        decode_ns,
        envelope_ns,
        server_receive_ns,
        client_roundtrip_ns,
        request_bytes: request_frame.len(),
        response_bytes: response_frame.len(),
    }
}

/// Round-trip time of same-size frames between two spin-polling threads
/// over a raw loopback socket: what the kernel's socket path charges
/// before any of this repo's code runs and before any thread sleeps.
fn loopback_floor_us(request_len: usize, response_len: usize) -> Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
    let addr = listener.local_addr().map_err(io_err)?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let echo = scope.spawn(|| -> std::io::Result<()> {
            let (mut sock, _) = listener.accept()?;
            sock.set_nonblocking(true)?;
            sock.set_nodelay(true)?;
            let response = vec![0x5Au8; response_len];
            let mut buf = vec![0u8; request_len];
            let mut got = 0;
            while !stop.load(Ordering::Relaxed) {
                match sock.read(&mut buf[got..]) {
                    Ok(0) => break,
                    Ok(n) => {
                        got += n;
                        if got == request_len {
                            got = 0;
                            let mut sent = 0;
                            while sent < response_len {
                                match sock.write(&response[sent..]) {
                                    Ok(n) => sent += n,
                                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                                    Err(e) => return Err(e),
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        });
        let client = || -> std::io::Result<f64> {
            let mut sock = TcpStream::connect(addr)?;
            sock.set_nodelay(true)?;
            sock.set_nonblocking(true)?;
            let request = vec![0xA5u8; request_len];
            let mut response = vec![0u8; response_len];
            let gave_up = Instant::now() + Duration::from_secs(20);
            let mut failed = None;
            // Both ends poll: no thread ever sleeps, so nothing here is
            // hand-off or wake — those are the residual's to explain.
            let mut round_trip = || -> std::io::Result<()> {
                let mut sent = 0;
                while sent < request_len {
                    match sock.write(&request[sent..]) {
                        Ok(n) => sent += n,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                        Err(e) => return Err(e),
                    }
                }
                let mut got = 0;
                while got < response_len {
                    match sock.read(&mut response[got..]) {
                        Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                        Ok(n) => got += n,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            if Instant::now() > gave_up {
                                return Err(ErrorKind::TimedOut.into());
                            }
                            std::hint::spin_loop();
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            };
            let p50 = p50_us(20_000, |_| {
                if failed.is_none() {
                    failed = round_trip().err();
                }
            });
            failed.map_or(Ok(p50), Err)
        };
        let p50 = client();
        stop.store(true, Ordering::Relaxed);
        let echoed = echo.join().expect("echo thread does not panic");
        p50.and_then(|p| echoed.map(|_| p)).map_err(io_err)
    })
}

/// Lookup and rebind p50 of the lock-step loop against `client`, over two
/// one-second slices: the `wire_lockstep` workload's own loop and recorder,
/// so a probe's figure and the workload's mean the same thing.
fn lockstep_p50_us(
    world: &Arc<WireWorld>,
    client: Arc<dyn ProviderBackend>,
    gen: Generator,
) -> Result<((f64, f64), Generator)> {
    let mut lockstep = WireLockstep::over(world.clone(), client, gen);
    let mut rec = Recorder::new();
    drive(&mut lockstep, &mut rec, 2.0);
    if rec.failed > 0 {
        return Err(NamingError::service("net probe: an operation failed"));
    }
    let p50 = (rec.p50_us(Kind::Read), rec.p50_us(Kind::Write));
    Ok((p50, lockstep.into_generator()))
}

/// `lockstep_p50`: the lookup and rebind p50 of the `wire_lockstep`
/// workload when this is its traced run; on the other workloads the probe
/// runs that loop itself.
fn net(lockstep_p50: Option<(f64, f64)>, m: &mut Metrics) -> Result<()> {
    let world = Arc::new(WireWorld::build(false)?);

    // Pipelined first: allocations per operation, all threads.
    let mut pipelined = WirePipelined::over(world.clone(), wire_generator(99))?;
    let mut rec = Recorder::new();
    while rec.attempted < 4_000 {
        pipelined.step(&mut rec);
    }
    let warmed = rec.attempted;
    let ((), allocations) = count_during(|| {
        while rec.attempted < warmed + 32_000 {
            pipelined.step(&mut rec);
        }
    });
    let allocs_per_op = allocations as f64 / (rec.attempted - warmed) as f64;
    let gen = pipelined.into_generator();

    let lookup = NamingOp::lookup(world.names[4_242].clone());
    let rebind = NamingOp::rebind(
        world.names[4_242].clone(),
        BoundValue::Str(value_of(4_242, 1)),
    );
    let found = OpOutcome::Value(BoundValue::Str(value_of(4_242, 1)));
    let read_costs = codec_costs(&lookup, &found);
    let write_costs = codec_costs(&rebind, &OpOutcome::Done);
    m.put("net.proto.encode_ns", read_costs.encode_ns, "ns");
    m.put("net.proto.decode_ns", read_costs.decode_ns, "ns");
    m.put("net.proto.envelope_ns", read_costs.envelope_ns, "ns");
    m.put(
        "net.proto.bytes_per_op",
        (read_costs.request_bytes + read_costs.response_bytes) as f64,
        "count",
    );
    m.put(
        "net.conn.server_receive_ns",
        read_costs.server_receive_ns,
        "ns",
    );
    m.put(
        "net.conn.client_roundtrip_ns",
        read_costs.client_roundtrip_ns,
        "ns",
    );
    m.put("net.allocs_per_op", allocs_per_op, "count");

    let floor = loopback_floor_us(read_costs.request_bytes, read_costs.response_bytes)?;
    let write_floor = loopback_floor_us(write_costs.request_bytes, write_costs.response_bytes)?;
    m.put("net.loopback_rtt_floor_us", floor, "us");

    // The lock-step loop against the server's pipeline in-process — on a
    // thread of its own, as the server's event loop is: glibc gives such a
    // thread a fresh arena, while on the thread that populated the store
    // (whose arena holds it) the same rebind takes twice as long.
    let ((inproc_lookup, inproc_rebind), gen) = std::thread::scope(|scope| {
        scope
            .spawn(|| lockstep_p50_us(&world, world.pipeline.clone(), gen))
            .join()
            .expect("probe thread does not panic")
    })?;
    m.put("net.inproc.lookup_us", inproc_lookup, "us");
    m.put("net.inproc.rebind_us", inproc_rebind, "us");

    // The same loop over the socket.
    let client = world.connect()?;
    let (wire_read, wire_write) = match lockstep_p50 {
        Some(p50) => p50,
        None => lockstep_p50_us(&world, client.clone(), gen)?.0,
    };
    m.put("net.wire_over_floor", wire_read / floor, "ratio");
    m.put(
        "net.wire_residual_us",
        wire_read - inproc_lookup - floor - read_costs.wire_cpu_us(),
        "us",
    );
    m.put(
        "net.wire_rebind_residual_us",
        wire_write - inproc_rebind - write_floor - write_costs.wire_cpu_us(),
        "us",
    );

    // The first request after the event loop went idle.
    let op = NamingOp::lookup(world.names[17].clone());
    let wakes: Vec<f64> = (0..20)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(50));
            let start = Instant::now();
            must(client.execute(&op));
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    m.put("net.server.wake_p50_us", median(&wakes), "us");

    // A connection open, nothing in flight: what does idling cost?
    let (cpu, wall) = (process_cpu(), Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    m.put(
        "net.server.idle_cpu_share",
        (process_cpu() - cpu).as_secs_f64() / wall.elapsed().as_secs_f64(),
        "ratio",
    );

    // The realm under that pipeline, called directly. Last: these writes
    // are not the shadow model's.
    let paths: Vec<String> = world
        .names
        .iter()
        .map(|n| n.components().join("/"))
        .collect();
    let realm_lookup_ns = per_call_ns(20_000, |i| {
        std::hint::black_box(world.realm.lookup(0, &paths[(i * 7919) % paths.len()]));
    });
    let entry = hdns::HdnsEntry::leaf(value_of(0, 0).into_bytes());
    let realm_rebind1 = p50_us(10_000, |i| {
        world
            .realm
            .rebind(0, &paths[(i * 7919) % paths.len()], entry.clone())
            .expect("single-replica rebind");
    });
    m.put("hdns.realm.lookup_ns", realm_lookup_ns, "ns");
    m.put("hdns.realm.rebind1_us", realm_rebind1, "us");
    Ok(())
}

// ------------------------------------------------------------- core --

/// A backend that answers at once, so a pipeline over it costs exactly the
/// pipeline.
struct Instant0;

impl ProviderBackend for Instant0 {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        Ok(match op.kind {
            OpKind::Lookup => OpOutcome::Value(BoundValue::Null),
            _ => OpOutcome::Done,
        })
    }

    fn provider_id(&self) -> String {
        "probe:noop".into()
    }

    /// Like the HDNS, LDAP and Jini providers, so the marshalling layer
    /// joins the stack.
    fn wire_format(&self) -> WireFormat {
        WireFormat::Encoded
    }
}

fn core(m: &mut Metrics) {
    m.put(
        "core.name.parse_ns",
        per_call_ns(50_000, |_| {
            std::hint::black_box(must(CompositeName::parse(std::hint::black_box(
                "o07/d42/l3",
            ))));
        }),
        "ns",
    );

    let pipeline = ProviderPipeline::standard(Arc::new(Instant0), &Environment::new());
    let name = CompositeName::from_components(["c042".to_string(), "n07".to_string()]);
    let lookup = NamingOp::lookup(name.clone());
    let rebind = NamingOp::rebind(name, BoundValue::Str(value_of(1, 1)));
    m.put(
        "core.spi.pipeline_self_us",
        per_call_ns(50_000, |_| {
            std::hint::black_box(must(pipeline.execute(std::hint::black_box(&lookup))));
        }) / 1e3,
        "us",
    );
    m.put(
        "core.spi.pipeline_rebind_self_us",
        per_call_ns(50_000, |_| {
            std::hint::black_box(must(pipeline.execute(std::hint::black_box(&rebind))));
        }) / 1e3,
        "us",
    );
    let ((), allocations) = count_during(|| {
        for _ in 0..10_000 {
            std::hint::black_box(must(pipeline.execute(std::hint::black_box(&lookup))));
        }
    });
    m.put("core.spi.allocs_per_op", allocations as f64 / 1e4, "count");
}

// -------------------------------------------------------------- fed --

fn total_lookups() -> u64 {
    rndi_core::spi::telemetry::snapshot()
        .iter()
        .flat_map(|t| t.ops.iter())
        .filter(|row| row.kind == OpKind::Lookup)
        .map(|row| row.ops)
        .sum()
}

fn fed(m: &mut Metrics) -> Result<()> {
    let mut with_obs = FedResolve::build(11, Environment::new(), false)?;
    {
        let w: &FedWorld = with_obs.world();
        fed_layers(w, m)?;
    }

    // The same workload with the telemetry plane off, in alternating
    // one-second slices, five each.
    let mut without_obs = FedResolve::build(
        11,
        Environment::new().with(keys::OBS_ENABLED, "false"),
        false,
    )?;
    let (mut on, mut off) = (Recorder::new(), Recorder::new());
    for _ in 0..5 {
        drive(&mut with_obs, &mut on, 1.0);
        drive(&mut without_obs, &mut off, 1.0);
    }
    if on.failed + off.failed > 0 {
        return Err(NamingError::service("obs probe: an operation failed"));
    }
    m.put(
        "obs.overhead_share",
        1.0 - on.ops_per_s() / off.ops_per_s(),
        "ratio",
    );
    Ok(())
}

fn fed_layers(w: &FedWorld, m: &mut Metrics) -> Result<()> {
    let clock = || -> Arc<dyn rndi_providers::common::MsClock> {
        Arc::new(RlusClock(w.rlus_clock.clone() as Arc<dyn rlus::Clock>))
    };
    let keys: Vec<u32> = {
        let mut rng = Rng::new(12);
        (0..4_096)
            .map(|_| rng.below(world::FED_SPACE.keys))
            .collect()
    };
    let key_at = |i: usize| keys[i % keys.len()];

    // How the initial context turns a URL into a provider context.
    let registry = w.ic.registry().clone();
    m.put(
        "core.initial.url_dispatch_ns",
        per_call_ns(20_000, |i| {
            let url = must(RndiUrl::parse(&world::fed_url(key_at(i))));
            let root = url.with_path(CompositeName::empty());
            std::hint::black_box(must(registry.create_context(&root, &w.env)));
        }),
        "ns",
    );

    // A federated lookup, and the same three provider legs called one by
    // one on the contexts the registry hands out.
    let federated = p50_us(20_000, |i| {
        must(w.ic.lookup(&world::fed_url(key_at(i))));
    });
    let root = |url: &str| {
        let url = must(RndiUrl::parse(url));
        must(registry.create_context(&url, &w.env))
    };
    let (dns, hub, dir) = (root("dns://global"), root("hdns://hub"), root("ldap://dir"));
    let leg_names = |key: u32| {
        let url = must(RndiUrl::parse(&world::fed_url(key)));
        let ldap = must(RndiUrl::parse(&world::fed_ldap_url(key)));
        (url.path, ldap.path)
    };
    let legs = p50_us(20_000, |i| {
        let (full, ldap_path) = leg_names(key_at(i));
        let a = dispatch(dns.as_ref(), &NamingOp::lookup(full.clone()));
        let b = dispatch(hub.as_ref(), &NamingOp::lookup(full));
        let c = dispatch(dir.as_ref(), &NamingOp::lookup(ldap_path));
        assert!(
            a.is_err_and(|e| e.is_continue()) && b.is_err_and(|e| e.is_continue()) && c.is_ok(),
            "each leg answers as it does inside the federation"
        );
    });
    let leg_prep = p50_us(20_000, |i| {
        std::hint::black_box(leg_names(key_at(i)));
    });
    m.put(
        "core.federation.self_us",
        federated - (legs - leg_prep),
        "us",
    );
    let before = total_lookups();
    for i in 0..1_000 {
        must(w.ic.lookup(&world::fed_url(key_at(i))));
    }
    m.put(
        "core.federation.hops_per_lookup",
        (total_lookups() - before) as f64 / 1e3,
        "count",
    );

    // Each provider without its interceptor stack, against the service
    // calls it makes.
    let env = &w.env;
    let zero = world::zero_clock();

    let dns_provider = DnsProviderContext::with_env(
        w.resolver.clone(),
        w.anchor.clone(),
        zero.clone(),
        "probe",
        env,
    )
    .backend()
    .clone();
    let dns_execute = p50_us(20_000, |i| {
        let (full, _) = leg_names(key_at(i));
        let _ = std::hint::black_box(dns_provider.execute(&NamingOp::lookup(full)));
    }) - leg_prep;
    // The resolutions that lookup makes: the full name, then each shorter
    // prefix down to the anchor, which answers.
    let dns_names = |key: u32| {
        let (full, _) = leg_names(key);
        let mut names = vec![w.anchor.clone()];
        for c in full.components() {
            names.push(names.last().expect("anchor").child(c));
        }
        names
    };
    let dns_resolves = p50_us(20_000, |i| {
        for name in dns_names(key_at(i)).iter().rev() {
            let _ = std::hint::black_box(w.resolver.resolve_traced(
                name,
                minidns::RecordType::Txt,
                0,
                None,
            ));
        }
    });
    let dns_names_prep = p50_us(20_000, |i| {
        std::hint::black_box(dns_names(key_at(i)));
    });
    m.put(
        "providers.dns.self_us",
        dns_execute - (dns_resolves - dns_names_prep),
        "us",
    );
    m.put(
        "dns.resolve_us",
        per_call_ns(20_000, |_| {
            std::hint::black_box(
                w.resolver
                    .resolve(&w.anchor, minidns::RecordType::Txt, 0)
                    .expect("anchor resolves"),
            );
        }) / 1e3,
        "us",
    );

    // HDNS: a two-component lookup probes the one strict prefix for a
    // mount, then reads the entry — two replica reads.
    let hdns_provider = HdnsProviderContext::with_env(w.realm.clone(), 0, "probe", env)
        .backend()
        .clone();
    let org = CompositeName::from_components(["o07".to_string(), "d42".to_string()]);
    let hdns_execute = per_call_ns(20_000, |_| {
        std::hint::black_box(must(hdns_provider.execute(&NamingOp::lookup(org.clone()))));
    });
    let hdns_reads = per_call_ns(20_000, |_| {
        std::hint::black_box(w.realm.lookup(0, "o07"));
        std::hint::black_box(w.realm.lookup(0, "o07/d42"));
    });
    m.put(
        "providers.hdns.self_us",
        (hdns_execute - hdns_reads) / 1e3,
        "us",
    );

    // LDAP: one base-scope read per lookup.
    let conn = w.ldap.connect_anonymous();
    let ldap_provider = LdapProviderContext::with_env(
        w.ldap.connect_anonymous(),
        dirserv::Dn::parse("o=bench").expect("static dn"),
        zero.clone(),
        "probe",
        env,
    )
    .backend()
    .clone();
    let ldap_execute = p50_us(20_000, |i| {
        let (_, path) = leg_names(key_at(i));
        std::hint::black_box(must(ldap_provider.execute(&NamingOp::lookup(path))));
    }) - leg_prep;
    let dn_at = |i: usize| world::fed_ldap_dn(key_at(i));
    let dn_prep = p50_us(20_000, |i| {
        std::hint::black_box(dn_at(i));
    });
    let ldap_read = p50_us(20_000, |i| {
        std::hint::black_box(conn.read(&dn_at(i), 0).expect("leaf exists"));
    }) - dn_prep;
    m.put("providers.ldap.self_us", ldap_execute - ldap_read, "us");
    let filter = dirserv::LdapFilter::parse("(cn=l3)").expect("static filter");
    m.put(
        "ldap.search_us",
        p50_us(2_000, |i| {
            let ou = dn_at(i).parent().expect("leaf has a parent");
            std::hint::black_box(
                conn.search(&ou, dirserv::Scope::OneLevel, &filter, None, 0)
                    .expect("department exists"),
            );
        }) - dn_prep,
        "us",
    );
    m.put(
        "ldap.modify_us",
        p50_us(10_000, |i| {
            let replace = dirserv::server::Modification::Replace(
                "description".into(),
                vec![format!("probe {i}")],
            );
            conn.modify(&dn_at(i), &[replace]).expect("leaf exists");
        }) - dn_prep,
        "us",
    );

    // Jini: one registrar lookup per naming lookup.
    let jini = |strict: bool, registrar: &rlus::Registrar| {
        JiniProviderContext::new(
            registrar.clone(),
            clock(),
            env.clone().with(
                keys::JINI_STRICT_BIND,
                if strict { "true" } else { "false" },
            ),
            "probe",
        )
    };
    let resident = CompositeName::from_components(["resident07".to_string()]);
    let jini_provider = jini(true, &w.registrar).backend().clone();
    let jini_execute = per_call_ns(20_000, |_| {
        std::hint::black_box(must(
            jini_provider.execute(&NamingOp::lookup(resident.clone())),
        ));
    });
    let template = rlus::ServiceTemplate::any()
        .with_entry(rlus::EntryTemplate::new("RndiBinding").with("name", "resident07"));
    let rlus_lookup = per_call_ns(20_000, |_| {
        std::hint::black_box(w.registrar.lookup(&template).expect("resident registered"));
    });
    m.put(
        "providers.jini.self_us",
        (jini_execute - rlus_lookup) / 1e3,
        "us",
    );
    m.put("rlus.lookup_ns", rlus_lookup, "ns");
    let item = rlus::ServiceItem::new(rlus::ServiceStub::new(vec!["Probe".into()], vec![0; 64]))
        .with_id(rlus::ServiceId::new(1, 1))
        .with_entry(rlus::Entry::name("probe"));
    m.put(
        "rlus.register_ns",
        per_call_ns(20_000, |_| {
            std::hint::black_box(w.registrar.register(item.clone(), 60_000));
        }),
        "ns",
    );

    // Strict (Eisenberg–McGuire lock over registrar registers) against
    // relaxed binds, each on a registrar of its own.
    let pair = |strict: bool| {
        let registrar = rlus::Registrar::new(w.rlus_clock.clone(), u64::MAX / 4, 5);
        let ctx = jini(strict, &registrar);
        let name = CompositeName::from_components(["probe-pair".to_string()]);
        let (bind, unbind) = (
            NamingOp::bind(name.clone(), BoundValue::str("lease-me")),
            NamingOp::unbind(name),
        );
        let before = registrar.stats();
        const PAIRS: usize = 3_000;
        let us = per_call_ns(PAIRS, |_| {
            must(ctx.execute(&bind));
            must(ctx.execute(&unbind));
        }) / 1e3;
        let after = registrar.stats();
        let ops = (after.registrations + after.lookups) - (before.registrations + before.lookups);
        // per_call_ns runs one warm-up batch besides the timed ones.
        (us, ops as f64 / ((BATCHES + 1) * PAIRS) as f64)
    };
    let (strict_us, strict_ops) = pair(true);
    let (relaxed_us, _) = pair(false);
    m.put("providers.jini.registrar_ops_per_bind", strict_ops, "count");
    m.put(
        "providers.jini.strict_over_relaxed",
        strict_us / relaxed_us,
        "ratio",
    );
    m.put(
        "client.jini_bind_p50_us",
        p50_us(3_000, |i| {
            let url = world::jini_url(i as u32 % world::FED_SPACE.jini_slots);
            must(w.ic.bind(&url, "lease-me"));
            must(w.ic.unbind(&url));
        }),
        "us",
    );
    Ok(())
}

// ---------------------------------------------------------- replica --

fn store_of(entries: usize) -> (hdns::HdnsStore, Vec<String>) {
    let mut store = hdns::HdnsStore::new();
    let mut paths = Vec::with_capacity(entries);
    for ctx in 0..entries / 100 {
        store
            .apply(&hdns::Op::CreateContext {
                path: format!("c{ctx:03}"),
            })
            .expect("fresh context");
        for leaf in 0..100 {
            let path = format!("c{ctx:03}/n{leaf:02}");
            store
                .apply(&hdns::Op::Bind {
                    path: path.clone(),
                    entry: hdns::HdnsEntry::leaf(value_of((ctx * 100 + leaf) as u32, 0).into()),
                    overwrite: false,
                })
                .expect("fresh name");
            paths.push(path);
        }
    }
    (store, paths)
}

/// Rounds of pump + process a three-member group needs before the
/// submitting member's write resolves, driven by hand through the public
/// `Cluster` and `HdnsNode` API (the realm keeps its own loop private).
fn drive_rounds_per_write() -> f64 {
    let cluster = groupcast::Cluster::new(1);
    let mut nodes: Vec<hdns::HdnsNode> = (0..3)
        .map(|_| {
            let node = hdns::HdnsNode::new(
                cluster.create_channel(groupcast::StackConfig::default()),
                None,
            );
            node.connect("rounds").expect("fresh group");
            cluster.pump_all();
            node
        })
        .collect();
    let settle = |nodes: &mut Vec<hdns::HdnsNode>| {
        cluster.pump_all();
        for n in nodes.iter_mut() {
            n.process();
        }
    };
    for _ in 0..4 {
        settle(&mut nodes);
    }
    const WRITES: usize = 500;
    let mut rounds = 0usize;
    for i in 0..WRITES {
        let ticket = nodes[0]
            .submit(hdns::Op::Bind {
                path: format!("k{}", i % 50),
                entry: hdns::HdnsEntry::leaf(value_of(i as u32, 0).into()),
                overwrite: true,
            })
            .expect("member is connected");
        loop {
            rounds += 1;
            settle(&mut nodes);
            match nodes[0].outcome(ticket) {
                hdns::OpOutcome::Pending if rounds < WRITES * 64 => {}
                _ => break,
            }
        }
    }
    rounds as f64 / WRITES as f64
}

fn replica(scratch: &Path, m: &mut Metrics) -> Result<()> {
    let (mut store, paths) = store_of(20_000);
    let at = |i: usize| &paths[(i * 7919) % paths.len()];
    m.put(
        "hdns.store.get_ns",
        per_call_ns(50_000, |i| {
            std::hint::black_box(store.get(at(i)));
        }),
        "ns",
    );
    let entry = hdns::HdnsEntry::leaf(value_of(3, 3).into());
    let apply_ns = per_call_ns(20_000, |i| {
        store
            .apply(&hdns::Op::Bind {
                path: at(i).clone(),
                entry: entry.clone(),
                overwrite: true,
            })
            .expect("overwrite of an existing name");
    });
    m.put("hdns.store.apply_ns", apply_ns, "ns");
    m.put(
        "hdns.store.list_us",
        per_call_ns(2_000, |i| {
            std::hint::black_box(store.list(&format!("c{:03}", i % 200)));
        }) / 1e3,
        "us",
    );
    let (small, _) = store_of(2_000);
    m.put(
        "hdns.store.snapshot_2k_ms",
        per_call_ns(20, |_| {
            std::hint::black_box(small.snapshot());
        }) / 1e6,
        "ms",
    );
    m.put(
        "hdns.store.snapshot_20k_ms",
        per_call_ns(3, |_| {
            std::hint::black_box(store.snapshot());
        }) / 1e6,
        "ms",
    );

    // The replicated write path, at the realm: three replicas, snapshots
    // to disk as in the workload. The p50 is off the snapshot.
    let workload = ReplicaWrite::build(13, scratch, false)?;
    let w: &ReplicaWorld = workload.world();
    let realm_paths: Vec<String> = w.names.iter().map(|n| n.components().join("/")).collect();
    let rebind3 = p50_us(4_000, |i| {
        w.realm
            .rebind(
                0,
                &realm_paths[(i * 7919) % realm_paths.len()],
                entry.clone(),
            )
            .expect("three-replica rebind");
    });
    m.put("hdns.realm.rebind3_us", rebind3, "us");
    m.put(
        "groupcomm.write_self_us",
        rebind3 - 3.0 * apply_ns / 1e3,
        "us",
    );
    m.put(
        "groupcomm.drive_rounds_per_write",
        drive_rounds_per_write(),
        "count",
    );
    m.put(
        "client.list_p50_us",
        p50_us(2_000, |i| {
            let op = NamingOp::list(world::replica_ctx_name(
                i as u32 % world::REPLICA_SPACE.contexts,
            ));
            std::hint::black_box(must(w.reader.execute(&op)));
        }),
        "us",
    );
    Ok(())
}
