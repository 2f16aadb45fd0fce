//! The four closed-loop workloads.
//!
//! One client thread issues the next operation only after the previous
//! reply arrived (paper §7). Each workload owns its world, its generator
//! and shadow model, and checks every reply: a refused or wrong reply is a
//! failure. Latency is timed around the call alone; generating the
//! operation and checking the reply are the client's think time and count
//! against throughput only.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rndi_core::env::Environment;
use rndi_core::error::{NamingError, Result};
use rndi_core::op::{NamingOp, OpKind, OpOutcome};
use rndi_core::spi::ProviderBackend;
use rndi_core::value::BoundValue;
use rndi_net::conn::ClientConn;
use rndi_net::proto::{self, Envelope, EnvelopeBody};

use crate::gen::{value_of, Generator, Mix, Op};
use crate::measure::{self, Kind, Recorder};
use crate::trace;
use crate::world::{self, FedWorld, ReplicaWorld, WireWorld};

pub const NAMES: [&str; 4] = [
    "wire_lockstep",
    "wire_pipelined",
    "fed_resolve",
    "replica_write",
];

/// Requests `wire_pipelined` keeps in flight.
pub const PIPELINE_DEPTH: usize = 16;

const WIRE_MIX: Mix = Mix {
    read: 90,
    write: 10,
    list: 0,
    jini: 0,
};
const FED_MIX: Mix = Mix {
    read: 80,
    write: 10,
    list: 0,
    jini: 10,
};
const REPLICA_MIX: Mix = Mix {
    read: 30,
    write: 60,
    list: 10,
    jini: 0,
};

pub trait Workload {
    /// Issue one operation (or one batch) and record what came back.
    fn step(&mut self, rec: &mut Recorder);
    /// Operations the fixed-count warm-up runs before the timed window.
    fn warmup_ops(&self) -> u64;
    /// After the window: does the service hold exactly what the model says?
    fn verify(&mut self) -> bool;
}

/// Build workload `name` (populate, bind, connect), then run its warm-up.
/// Dropping the workload stops its servers and removes its files.
pub fn build(name: &str, seed: u64, scratch: &Path, traced: bool) -> Result<Box<dyn Workload>> {
    let mut workload: Box<dyn Workload> = match name {
        "wire_lockstep" => Box::new(WireLockstep::build(seed, traced)?),
        "wire_pipelined" => Box::new(WirePipelined::build(seed, traced)?),
        "fed_resolve" => Box::new(FedResolve::build(seed, Environment::new(), traced)?),
        "replica_write" => Box::new(ReplicaWrite::build(seed, scratch, traced)?),
        other => {
            return Err(NamingError::ConfigurationError {
                detail: format!("unknown workload {other:?} (known: {NAMES:?})"),
            })
        }
    };
    let mut warm = Recorder::new();
    while warm.attempted < workload.warmup_ops() {
        workload.step(&mut warm);
    }
    if warm.failed > 0 {
        return Err(NamingError::service(format!(
            "{} of {} warm-up operations failed",
            warm.failed, warm.attempted
        )));
    }
    Ok(workload)
}

/// Drive `workload` until `rec` has closed `seconds` more one-second
/// slices (at least one), adding to what it already holds.
pub fn drive(workload: &mut dyn Workload, rec: &mut Recorder, seconds: f64) {
    let more = (seconds as usize).max(1);
    let target = rec.slices.len() + more;
    // Only successes close a slice: a service that refuses everything must
    // end the run (as a failed one), not hang it.
    let give_up = Instant::now() + measure::SLICE * (3 * more as u32 + 5);
    rec.resume();
    while rec.slices.len() < target && Instant::now() < give_up {
        workload.step(rec);
    }
}

fn holds(outcome: Result<OpOutcome>, key: u32, version: u32) -> bool {
    outcome
        .and_then(|o| o.into_value(OpKind::Lookup))
        .is_ok_and(|v| v.as_str() == Some(value_of(key, version).as_str()))
}

/// A reply is right when it is not an error and, for a lookup, holds the
/// expected (key, version).
fn answers(outcome: Result<OpOutcome>, expect: Option<(u32, u32)>) -> bool {
    match expect {
        Some((key, version)) => holds(outcome, key, version),
        None => outcome.is_ok(),
    }
}

/// The naming operation a generated wire operation stands for, and what a
/// lookup must return.
fn wire_op(world: &WireWorld, op: Op) -> (Kind, NamingOp, Option<(u32, u32)>) {
    match op {
        Op::Read { key, version } => (
            Kind::Read,
            NamingOp::lookup(world.names[key as usize].clone()),
            Some((key, version)),
        ),
        Op::Write { key, version } => (
            Kind::Write,
            NamingOp::rebind(
                world.names[key as usize].clone(),
                BoundValue::Str(value_of(key, version)),
            ),
            None,
        ),
        other => unreachable!("wire mix generated {other:?}"),
    }
}

/// The wire workloads' generator over a world as populated.
pub fn wire_generator(seed: u64) -> Generator {
    Generator::new(seed, WIRE_MIX, world::WIRE_SPACE)
}

/// Operations of the wire mix run against the server's pipeline with no
/// socket between, before the client connects. They make a wire set-up
/// what the issue asks every set-up to be — mostly single-threaded
/// in-process work — and leave the socket itself a short warm-up: a long
/// one is two threads handing off, and on a 2-vCPU guest that runs at
/// either 18k or 31k op/s depending on where the scheduler put them.
const WIRE_INPROC_WARMUP_OPS: u32 = 170_000;

fn warmed_wire_generator(world: &WireWorld, seed: u64) -> Result<Generator> {
    let mut gen = wire_generator(seed);
    for _ in 0..WIRE_INPROC_WARMUP_OPS {
        let (_, op, expect) = wire_op(world, gen.next_op());
        if !answers(world.pipeline.execute(&op), expect) {
            return Err(NamingError::service(
                "an in-process warm-up operation failed",
            ));
        }
    }
    Ok(gen)
}

// ---------------------------------------------------- wire_lockstep --

pub struct WireLockstep {
    world: Arc<WireWorld>,
    client: Arc<dyn ProviderBackend>,
    gen: Generator,
}

impl WireLockstep {
    pub fn build(seed: u64, traced: bool) -> Result<WireLockstep> {
        let world = Arc::new(WireWorld::build(traced)?);
        let gen = warmed_wire_generator(&world, seed)?;
        let client = world.connect()?;
        Ok(WireLockstep::over(world, client, gen))
    }

    /// The lock-step loop against `client`: the world's `NetClient`, or
    /// (for the probes) its server-side pipeline with no socket between.
    /// `gen` must hold the model of what the world holds now.
    pub fn over(world: Arc<WireWorld>, client: Arc<dyn ProviderBackend>, gen: Generator) -> Self {
        WireLockstep { world, client, gen }
    }

    /// The model, for whoever drives the same world next.
    pub fn into_generator(self) -> Generator {
        self.gen
    }
}

impl Workload for WireLockstep {
    fn step(&mut self, rec: &mut Recorder) {
        let (kind, op, expect) = wire_op(&self.world, self.gen.next_op());
        let id = trace::next_op();
        let start = Instant::now();
        let outcome = self.client.execute(&op);
        let end = Instant::now();
        trace::client_span(id, kind, start, end);
        rec.record(kind, start, end, answers(outcome, expect));
    }

    fn warmup_ops(&self) -> u64 {
        4_000
    }

    fn verify(&mut self) -> bool {
        verify_wire(&self.world, &self.gen)
    }
}

/// Read every key back in-process and compare with the model.
fn verify_wire(world: &WireWorld, gen: &Generator) -> bool {
    (0..gen.space().keys).all(|key| {
        let op = NamingOp::lookup(world.names[key as usize].clone());
        holds(world.pipeline.execute(&op), key, gen.version(key))
    })
}

// --------------------------------------------------- wire_pipelined --

pub struct WirePipelined {
    world: Arc<WireWorld>,
    stream: TcpStream,
    conn: ClientConn,
    gen: Generator,
    wire: Vec<u8>,
    scratch: Vec<u8>,
    batch: Vec<InFlight>,
}

/// One request of the batch on the wire.
struct InFlight {
    req_id: u64,
    kind: Kind,
    /// For a lookup: the key and the version it must return.
    expect: Option<(u32, u32)>,
    /// The client's operation number, for its span.
    op: u64,
}

impl WirePipelined {
    pub fn build(seed: u64, traced: bool) -> Result<WirePipelined> {
        let world = Arc::new(WireWorld::build(traced)?);
        let gen = warmed_wire_generator(&world, seed)?;
        WirePipelined::over(world, gen)
    }

    /// Drive a world somebody else also holds; `gen` must hold the model of
    /// what the world holds now.
    pub fn over(world: Arc<WireWorld>, gen: Generator) -> Result<WirePipelined> {
        let io = |e: std::io::Error| NamingError::service(format!("pipelined client: {e}"));
        let stream = TcpStream::connect(world.server.local_addr()).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        // A wedged server must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(io)?;
        Ok(WirePipelined {
            world,
            stream,
            conn: ClientConn::new(),
            gen,
            wire: Vec::with_capacity(PIPELINE_DEPTH * 160),
            scratch: vec![0u8; 64 * 1024],
            batch: Vec::with_capacity(PIPELINE_DEPTH),
        })
    }

    pub fn into_generator(self) -> Generator {
        self.gen
    }

    /// Write one batch, drain its replies. `Err` means the connection is
    /// unusable; the replies still missing are recorded as failures.
    fn round_trip(&mut self, rec: &mut Recorder, start: Instant) -> Result<()> {
        let io = |e: std::io::Error| NamingError::service(format!("pipelined client: {e}"));
        self.stream.write_all(&self.wire).map_err(io)?;
        let mut waiting = self.batch.len();
        while waiting > 0 {
            let n = self.stream.read(&mut self.scratch).map_err(io)?;
            if n == 0 {
                return Err(NamingError::service("server closed the connection"));
            }
            for env in self.conn.receive(&self.scratch[..n])? {
                let end = Instant::now();
                let Some(slot) = self.batch.iter().position(|b| b.req_id == env.req_id) else {
                    return Err(NamingError::service("reply to a request never sent"));
                };
                let InFlight {
                    kind, expect, op, ..
                } = self.batch.swap_remove(slot);
                let outcome = match env.body {
                    EnvelopeBody::Ok(out) => proto::decode_outcome(&out),
                    EnvelopeBody::Err(e) => Err(proto::decode_error(&e)),
                    other => Err(NamingError::service(format!("unexpected reply {other:?}"))),
                };
                trace::client_span(op, kind, start, end);
                rec.record(kind, start, end, answers(outcome, expect));
                waiting -= 1;
            }
        }
        Ok(())
    }
}

impl Workload for WirePipelined {
    fn step(&mut self, rec: &mut Recorder) {
        self.wire.clear();
        self.batch.clear();
        for _ in 0..PIPELINE_DEPTH {
            let (kind, op, expect) = wire_op(&self.world, self.gen.next_op());
            let req_id = self.conn.next_req_id();
            let frame = proto::encode_op(&op).and_then(|wire_op| {
                self.conn.encode(&Envelope {
                    req_id,
                    body: EnvelopeBody::Call {
                        op: Box::new(wire_op),
                        deadline_ms: 10_000,
                        trace: None,
                    },
                })
            });
            match frame {
                Ok(bytes) => {
                    self.wire.extend_from_slice(&bytes);
                    self.batch.push(InFlight {
                        req_id,
                        kind,
                        expect,
                        op: trace::next_op(),
                    });
                }
                Err(_) => {
                    let now = Instant::now();
                    rec.record(kind, now, now, false);
                }
            }
        }
        // Every request of the batch is issued by the one write below.
        let start = Instant::now();
        if self.round_trip(rec, start).is_err() {
            for lost in self.batch.drain(..) {
                rec.record(lost.kind, start, Instant::now(), false);
            }
        }
    }

    fn warmup_ops(&self) -> u64 {
        16_000
    }

    fn verify(&mut self) -> bool {
        verify_wire(&self.world, &self.gen)
    }
}

// ------------------------------------------------------ fed_resolve --

pub struct FedResolve {
    world: FedWorld,
    urls: Vec<String>,
    gen: Generator,
}

impl FedResolve {
    pub fn build(seed: u64, env: Environment, traced: bool) -> Result<FedResolve> {
        Ok(FedResolve {
            world: FedWorld::build(env, traced)?,
            urls: (0..world::FED_SPACE.keys).map(world::fed_url).collect(),
            gen: Generator::new(seed, FED_MIX, world::FED_SPACE),
        })
    }

    pub fn world(&self) -> &FedWorld {
        &self.world
    }
}

impl Workload for FedResolve {
    fn step(&mut self, rec: &mut Recorder) {
        let ic = &self.world.ic;
        let op = self.gen.next_op();
        let id = trace::next_op();
        let (kind, start, end, ok) = match op {
            Op::Read { key, version } => {
                let start = Instant::now();
                let got = ic.lookup(&self.urls[key as usize]);
                let end = Instant::now();
                let expected = value_of(key, version);
                let ok = got.is_ok_and(|v| v.as_str() == Some(expected.as_str()));
                (Kind::Read, start, end, ok)
            }
            Op::Write { key, version } => {
                let value = value_of(key, version);
                let start = Instant::now();
                let ok = ic.rebind(&self.urls[key as usize], value).is_ok();
                (Kind::Write, start, Instant::now(), ok)
            }
            Op::Jini { slot } => {
                let url = world::jini_url(slot);
                let start = Instant::now();
                let ok = ic.bind(&url, "lease-me").is_ok() && ic.unbind(&url).is_ok();
                (Kind::Jini, start, Instant::now(), ok)
            }
            other => unreachable!("fed mix generated {other:?}"),
        };
        trace::client_span(id, kind, start, end);
        rec.record(kind, start, end, ok);
    }

    fn warmup_ops(&self) -> u64 {
        66_000
    }

    fn verify(&mut self) -> bool {
        // Read every leaf at the LDAP server itself, not through the
        // federation that wrote it.
        (0..self.gen.space().keys).all(|key| {
            self.world
                .ic
                .lookup(&world::fed_ldap_url(key))
                .is_ok_and(|v| v.as_str() == Some(value_of(key, self.gen.version(key)).as_str()))
        })
    }
}

// ---------------------------------------------------- replica_write --

pub struct ReplicaWrite {
    world: ReplicaWorld,
    gen: Generator,
}

impl ReplicaWrite {
    pub fn build(seed: u64, scratch: &Path, traced: bool) -> Result<ReplicaWrite> {
        Ok(ReplicaWrite {
            world: ReplicaWorld::build(scratch, traced)?,
            gen: Generator::new(seed, REPLICA_MIX, world::REPLICA_SPACE),
        })
    }

    pub fn world(&self) -> &ReplicaWorld {
        &self.world
    }
}

impl Workload for ReplicaWrite {
    fn step(&mut self, rec: &mut Recorder) {
        let space = self.gen.space();
        let op = self.gen.next_op();
        let id = trace::next_op();
        let (kind, start, end, ok) = match op {
            // Reads go to replica 2 and must see what replica 0
            // acknowledged.
            Op::Read { key, version } => {
                let op = NamingOp::lookup(self.world.names[key as usize].clone());
                let start = Instant::now();
                let got = self.world.reader.execute(&op);
                (Kind::Read, start, Instant::now(), holds(got, key, version))
            }
            Op::Write { key, version } => {
                let op = NamingOp::rebind(
                    self.world.names[key as usize].clone(),
                    BoundValue::Str(value_of(key, version)),
                );
                let start = Instant::now();
                let ok = self.world.writer.execute(&op).is_ok();
                (Kind::Write, start, Instant::now(), ok)
            }
            Op::List { ctx } => {
                let op = NamingOp::list(world::replica_ctx_name(ctx));
                let start = Instant::now();
                let got = self.world.reader.execute(&op);
                let end = Instant::now();
                // The deployment's event pump: nobody listens at replicas 1
                // and 2, and undrained change events would make memory a
                // function of how many writes the run got through.
                for replica in 1..self.world.realm.replica_count() {
                    self.world.realm.take_events(replica);
                }
                let expected = (space.keys / space.contexts) as usize;
                let ok = got
                    .and_then(|o| o.into_names(OpKind::List))
                    .is_ok_and(|names| names.len() == expected);
                (Kind::List, start, end, ok)
            }
            other => unreachable!("replica mix generated {other:?}"),
        };
        trace::client_span(id, kind, start, end);
        rec.record(kind, start, end, ok);
    }

    fn warmup_ops(&self) -> u64 {
        9_000
    }

    fn verify(&mut self) -> bool {
        let model_holds = (0..self.gen.space().keys).all(|key| {
            let op = NamingOp::lookup(self.world.names[key as usize].clone());
            holds(self.world.reader.execute(&op), key, self.gen.version(key))
        });
        model_holds && self.world.converged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers at once; every operation claims to have taken a third of a
    /// slice, so slices close without a second of real time passing.
    struct Instantly {
        clock: Instant,
    }

    impl Workload for Instantly {
        fn step(&mut self, rec: &mut Recorder) {
            let start = self.clock;
            self.clock += measure::SLICE / 3;
            rec.record(Kind::Read, start, self.clock, true);
        }

        fn warmup_ops(&self) -> u64 {
            0
        }

        fn verify(&mut self) -> bool {
            true
        }
    }

    #[test]
    fn the_shortest_window_still_closes_a_slice() {
        let mut workload = Instantly {
            clock: Instant::now(),
        };
        let mut rec = Recorder::new();
        drive(&mut workload, &mut rec, 0.16);
        assert_eq!(rec.slices.len(), 1);
        assert!(rec.p50_us(Kind::Read).is_finite());
        drive(&mut workload, &mut rec, 2.0);
        assert_eq!(rec.slices.len(), 3);
    }
}
