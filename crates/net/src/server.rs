//! `NetServer`: hosts any [`ProviderBackend`] on a shard-per-core
//! nonblocking event loop.
//!
//! The accept thread hands each new socket to one of
//! `rndi.net.server.shards` worker shards in round-robin order. Each shard
//! owns its connections outright and drives two sans-IO machines. A pass
//! reads every socket into its [`ServerConn`] and offers each decoded call
//! to the shard's [`Admission`] (shed at once with `Overloaded`, or
//! queued), runs the queue to empty against the backend, then flushes each
//! connection's output once, so N pipelined requests cost one read wakeup
//! and at most one write flush, and a peer that hangs up after sending is
//! still answered. The shard reads the clock once per admission decision
//! and hands the instant in. Thousands of idle connections cost memory,
//! not threads; an adaptive backoff (spin → yield → escalating sleep)
//! keeps an idle shard off the CPU and reacts within microseconds when
//! traffic resumes.
//!
//! `Gossip` envelopes carry a cluster membership plane's payloads as
//! opaque bytes: the attached [`GossipHandler`] reads each one and writes
//! the answer, and a server with no plane answers a typed error without
//! reaching its backend. A connection that speaks gossip is moved to a
//! shard of its own, started with the first
//! [`NetServer::set_gossip_handler`]: a naming call may wait on the group
//! (a replicated write waits for its ordered delivery), and the frames it
//! waits for must never sit unread behind it on the same event loop.
//!
//! [`NetServer::shutdown`] drains: accepting stops, buffered requests
//! are answered, output buffers flush, then sockets close.
//! [`NetServer::abort`] is the unclean variant used by fault-injection
//! tests: it tears the sockets down mid-request.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::spi::ProviderBackend;
use rndi_obs::metrics::{global_registry, names, Gauge, Registry};
use rndi_obs::{HealthSummary, SpanOutcome, SpanRecord, TraceCtx};

use crate::admit::{Admission, Next, Quota, Served};
use crate::conn::{Inbound, InboundMsg, ResponseBody, ServerConn};
use crate::proto::{self, AdminReply, AdminRequest};

/// Per-pass read budget per connection, so one firehose socket cannot
/// starve its shard siblings.
const READ_CHUNK: usize = 64 * 1024;

/// Idle passes a shard spin-yields before it starts sleeping.
const SPIN_PASSES: u32 = 1_500;

/// Ceiling for the escalating idle sleep.
const MAX_IDLE_SLEEP: Duration = Duration::from_millis(1);

/// How long a draining shard keeps trying to flush response bytes.
const DRAIN_FLUSH_BUDGET: Duration = Duration::from_millis(500);

/// Resolved server configuration (see the `rndi.net.*` environment keys).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// `host:port` to listen on; port `0` binds ephemerally.
    pub listen: String,
    /// Maximum concurrently served connections.
    pub max_conns: usize,
    /// Per-request deadline budget in milliseconds; `0` disables.
    pub deadline_ms: u64,
    /// Event-loop shards; `0` sizes to `min(available cores, 4)`.
    pub shards: usize,
    /// Per-shard admission-queue bound: calls beyond this many waiting are
    /// shed with `Overloaded` instead of queueing past their deadline.
    /// `0` (the default) leaves the queue unbounded: every call still
    /// passes admission and is answered in the pass that read it.
    pub queue_depth: usize,
    /// Per-connection token-bucket refill, ops per second; `0` disables
    /// rate limiting.
    pub rate_ops: u64,
    /// Token-bucket burst capacity; `0` means `rate_ops`.
    pub rate_burst: u64,
    /// Run the AIMD adaptive admission controller (needs `queue_depth > 0`
    /// to have a bound to adapt).
    pub adaptive: bool,
}

impl Default for ServerConfig {
    /// What an environment that sets no `rndi.net.*` key reads as.
    fn default() -> Self {
        ServerConfig::from_env(&Environment::new()).expect("an empty environment parses")
    }
}

impl ServerConfig {
    /// Read the `rndi.net.*` keys strictly: a present-but-unparsable value
    /// is a [`NamingError::ConfigurationError`], not a silent default.
    pub fn from_env(env: &Environment) -> Result<ServerConfig> {
        Ok(ServerConfig {
            listen: env
                .get(keys::NET_LISTEN)
                .unwrap_or("127.0.0.1:0")
                .to_string(),
            max_conns: env.try_get_u64(keys::NET_SERVER_MAX_CONNS, 64)? as usize,
            deadline_ms: env.try_get_u64(keys::NET_DEADLINE_MS, 5_000)?,
            shards: env.try_get_u64(keys::NET_SERVER_SHARDS, 0)? as usize,
            queue_depth: env.try_get_u64(keys::NET_SERVER_QUEUE_DEPTH, 0)? as usize,
            rate_ops: env.try_get_u64(keys::NET_SERVER_RATE_OPS, 0)?,
            rate_burst: env.try_get_u64(keys::NET_SERVER_RATE_BURST, 0)?,
            adaptive: env.try_get_bool(keys::NET_SERVER_ADAPTIVE, false)?,
        })
    }

    fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 4)
    }
}

struct ServerState {
    backend: Arc<dyn ProviderBackend>,
    label: Arc<str>,
    config: ServerConfig,
    /// Where this server's instruments live. Defaults to the process
    /// global; `serve_sharded` hands each shard its own registry so a
    /// remote scrape sees per-instance series, not a process-wide blur.
    registry: Arc<Registry>,
    started: Instant,
    shutdown: AtomicBool,
    active: AtomicUsize,
    /// A second handle on every live socket, keyed by connection id, for
    /// `abort` to tear down mid-request. The owning shard removes the
    /// entry when it drops the connection, so churn does not accumulate
    /// descriptors.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Shard inboxes: the accept thread parks new sockets here, and the
    /// owning shard adopts them at the top of its next pass. Their depth is
    /// the health probe's accepted-but-not-yet-adopted backlog. The last one
    /// is the gossip shard's: shards move connections that speak gossip there.
    inboxes: Vec<Mutex<Vec<ShardConn>>>,
    /// Per-shard `[queue depth, admission bound (0 = unbounded)]` gauges,
    /// resolved once: each shard writes its own, the health probe sums.
    admission: Vec<[Arc<Gauge>; 2]>,
    /// Shed counters by reason, indexed by [`ShedReason`](crate::admit::ShedReason).
    shed: [Arc<rndi_obs::Counter>; 3],
    /// Per-op-kind request instruments, resolved once — a registry lookup
    /// allocates label strings under a global lock, far too expensive on
    /// the per-request path.
    req_instruments: Mutex<HashMap<String, ReqInstruments>>,
    /// Serves `Gossip` envelopes when a cluster membership plane attached
    /// itself; otherwise gossip requests answer a typed error.
    gossip: Mutex<Option<Arc<dyn GossipHandler>>>,
}

/// Serves `Gossip` envelopes: takes a membership plane's payload and
/// returns the bytes of its answer. The transport neither reads nor checks
/// them. Runs inline on the shard event loop, so implementations must be
/// quick and never block on the network.
pub trait GossipHandler: Send + Sync {
    fn handle(&self, payload: &[u8]) -> Vec<u8>;
}

#[derive(Clone)]
struct ReqInstruments {
    ok: Arc<rndi_obs::Counter>,
    err: Arc<rndi_obs::Counter>,
    duration: Arc<rndi_obs::metrics::Histogram>,
}

impl ServerState {
    /// Index of the gossip shard: the last inbox, which the accept loop
    /// never targets.
    fn gossip_shard(&self) -> usize {
        self.inboxes.len() - 1
    }

    fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<rndi_obs::Counter> {
        let mut all = vec![("server", &*self.label)];
        all.extend_from_slice(labels);
        self.registry.counter(name, &all)
    }

    /// The ok/err counters and duration histogram for one op kind.
    fn req_instruments(&self, op_label: &str) -> ReqInstruments {
        if let Some(found) = self.req_instruments.lock().get(op_label) {
            return found.clone();
        }
        let made = ReqInstruments {
            ok: self.counter(names::NET_REQUESTS, &[("op", op_label), ("outcome", "ok")]),
            err: self.counter(names::NET_REQUESTS, &[("op", op_label), ("outcome", "err")]),
            duration: self.registry.histogram(
                names::NET_REQUEST_DURATION,
                &[("server", &self.label), ("op", op_label)],
            ),
        };
        self.req_instruments
            .lock()
            .entry(op_label.to_string())
            .or_insert(made)
            .clone()
    }

    /// One self-contained health probe, cheap enough to serve inline on
    /// the event loop: everything reads atomics or short-held locks.
    fn health(&self) -> HealthSummary {
        let (mut ok, mut err) = (0u64, 0u64);
        for inst in self.req_instruments.lock().values() {
            ok += inst.ok.get();
            err += inst.err.get();
        }
        let inbox_depth = self
            .inboxes
            .iter()
            .map(|inbox| inbox.lock().len() as u64)
            .sum();
        let ring = rndi_obs::trace::ring();
        HealthSummary {
            instance: self.label.to_string(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            active_conns: self.active.load(Ordering::Relaxed) as u64,
            max_conns: self.config.max_conns as u64,
            inbox_depth,
            requests_ok: ok,
            requests_err: err,
            trace_spans: ring.len() as u64,
            trace_dropped: ring.dropped(),
            queue_depth: self.admission.iter().map(|[d, _]| d.get() as u64).sum(),
            concurrency_limit: self.admission.iter().map(|[_, l]| l.get() as u64).sum(),
            shed_total: self.shed.iter().map(|c| c.get()).sum(),
        }
    }
}

/// One connection a shard owns: its socket and protocol state machine.
struct ShardConn {
    /// Unique for the server's life; keys `abort`'s clone in `state.conns`.
    id: u64,
    stream: TcpStream,
    machine: ServerConn,
    /// Its rate limit, checked as each call is offered to admission.
    quota: Quota,
    /// Has carried a `Gossip` request a membership plane answered.
    gossip: bool,
    /// Hung up or broke the protocol: answered, then dropped, this pass.
    closed: bool,
}

/// One call admission holds: where its answer goes, and the call.
struct Call {
    /// Index of its connection in the shard's list, stable for the pass.
    slot: usize,
    req_id: u64,
    op: Box<proto::WireOp>,
    trace: Option<TraceCtx>,
}

/// A running TCP server hosting one backend (typically a fully-assembled
/// [`ProviderPipeline`](rndi_core::spi::ProviderPipeline), so cache, retry
/// and obs layers run server-side too).
pub struct NetServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl NetServer {
    /// Bind and start serving `backend` with configuration from `env`.
    pub fn bind(backend: Arc<dyn ProviderBackend>, env: &Environment) -> Result<NetServer> {
        Self::with_config(backend, ServerConfig::from_env(env)?)
    }

    /// Bind and start serving with an explicit configuration. Instruments
    /// land in the process-global registry.
    pub fn with_config(
        backend: Arc<dyn ProviderBackend>,
        config: ServerConfig,
    ) -> Result<NetServer> {
        Self::with_registry(backend, config, global_registry())
    }

    /// Bind and start serving with an explicit configuration and a
    /// dedicated metrics registry. A multi-shard host gives each server
    /// its own registry so `Admin(Metrics)` scrapes stay per-instance.
    pub fn with_registry(
        backend: Arc<dyn ProviderBackend>,
        config: ServerConfig,
        registry: Arc<Registry>,
    ) -> Result<NetServer> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| NamingError::service(format!("bind {}: {e}", config.listen)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NamingError::service(format!("listener setup: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| NamingError::service(format!("listener addr: {e}")))?;
        let label = format!("net:{}", backend.provider_id());
        let shard_count = config.effective_shards();
        let shed = ["queue", "rate", "deadline"].map(|reason| {
            registry.counter(names::NET_SHED, &[("server", &label), ("reason", reason)])
        });
        let admission = (0..=shard_count)
            .map(|shard| {
                let shard = shard.to_string();
                let labels: &[(&str, &str)] = &[("server", &label), ("shard", &shard)];
                [
                    registry.gauge(names::NET_QUEUE_DEPTH, labels),
                    registry.gauge(names::NET_CONCURRENCY_LIMIT, labels),
                ]
            })
            .collect();
        let state = Arc::new(ServerState {
            backend,
            label: label.into(),
            config,
            registry,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            inboxes: (0..=shard_count).map(|_| Mutex::default()).collect(),
            admission,
            shed,
            req_instruments: Mutex::new(HashMap::new()),
            gossip: Mutex::new(None),
        });
        let mut threads = Vec::with_capacity(shard_count + 1);
        for shard in 0..shard_count {
            let state = state.clone();
            threads.push(std::thread::spawn(move || shard_loop(state, shard)));
        }
        {
            let state = state.clone();
            threads.push(std::thread::spawn(move || accept_loop(listener, state)));
        }
        Ok(NetServer {
            addr,
            state,
            threads: Mutex::new(threads),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The health summary this server would answer to `Admin(Health)`.
    pub fn health(&self) -> HealthSummary {
        self.state.health()
    }

    /// Attach a cluster membership plane: `handler` answers the
    /// `Gossip` request family on this server's data sockets.
    pub fn set_gossip_handler(&self, handler: Arc<dyn GossipHandler>) {
        let mut slot = self.state.gossip.lock();
        if slot.is_none() {
            // The gossip shard must be running before any connection can
            // be handed to it.
            let (state, shard) = (self.state.clone(), self.state.gossip_shard());
            let gossip_shard = std::thread::spawn(move || shard_loop(state, shard));
            self.threads.lock().push(gossip_shard);
        }
        *slot = Some(handler);
    }

    /// Graceful shutdown: stop accepting, answer buffered requests, flush
    /// responses, close every connection, and join all server threads.
    pub fn shutdown(mut self) {
        self.stop(false);
    }

    /// Unclean shutdown: tear sockets down immediately, mid-request if
    /// need be. Fault-injection tests use this to simulate a server crash.
    pub fn abort(mut self) {
        self.stop(true);
    }

    fn stop(&mut self, abort: bool) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if abort {
            for conn in self.state.conns.lock().values() {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
        }
        for handle in self.threads.get_mut().drain(..) {
            let _ = handle.join();
        }
        self.state.conns.lock().clear();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if !self.threads.get_mut().is_empty() {
            self.stop(false);
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    let inboxes = &state.inboxes[..state.gossip_shard()];
    let active_gauge = state
        .registry
        .gauge(names::NET_ACTIVE_CONNS, &[("server", &state.label)]);
    let refused = state.counter(names::NET_CONNS, &[("event", "refused")]);
    let accepted = state.counter(names::NET_CONNS, &[("event", "accepted")]);
    let mut next_shard = 0usize;
    let mut next_conn_id: u64 = 0;
    let mut idle = Backoff::new();
    let config = &state.config;
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                idle.reset();
                if state.active.load(Ordering::SeqCst) >= config.max_conns {
                    refused.inc();
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                accepted.inc();
                state.active.fetch_add(1, Ordering::SeqCst);
                active_gauge.add(1);
                next_conn_id += 1;
                if let Ok(clone) = stream.try_clone() {
                    state.conns.lock().insert(next_conn_id, clone);
                }
                inboxes[next_shard].lock().push(ShardConn {
                    id: next_conn_id,
                    stream,
                    machine: ServerConn::new(),
                    quota: Quota::new(config.rate_ops, config.rate_burst, Instant::now()),
                    gossip: false,
                    closed: false,
                });
                next_shard = (next_shard + 1) % inboxes.len();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => idle.pause(),
            Err(_) => break,
        }
    }
}

/// Adaptive idle backoff: spin-yield while traffic is recent, then sleep
/// with an escalating interval. Keeps reaction latency in the microsecond
/// range for active connections and CPU near zero for idle ones.
struct Backoff {
    idle_passes: u32,
}

impl Backoff {
    fn new() -> Backoff {
        Backoff { idle_passes: 0 }
    }

    fn reset(&mut self) {
        self.idle_passes = 0;
    }

    fn pause(&mut self) {
        self.idle_passes = self.idle_passes.saturating_add(1);
        if self.idle_passes <= SPIN_PASSES {
            std::thread::yield_now();
        } else {
            let over = (self.idle_passes - SPIN_PASSES) as u64;
            let sleep = Duration::from_micros(50).saturating_mul(over.min(20) as u32);
            std::thread::sleep(sleep.min(MAX_IDLE_SLEEP));
        }
    }
}

fn shard_loop(state: Arc<ServerState>, shard: usize) {
    let gossip_shard = state.gossip_shard();
    let active_gauge = state
        .registry
        .gauge(names::NET_ACTIVE_CONNS, &[("server", &state.label)]);
    let bytes_in = state.counter(names::NET_BYTES, &[("dir", "in")]);
    let bytes_out = state.counter(names::NET_BYTES, &[("dir", "out")]);
    let [depth_gauge, bound_gauge] = &state.admission[shard];
    let mut conns: Vec<ShardConn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut idle = Backoff::new();
    let config = &state.config;
    let mut admission = Admission::new(config.queue_depth, config.adaptive, config.deadline_ms);
    bound_gauge.set(admission.bound() as i64);

    while !state.shutdown.load(Ordering::SeqCst) {
        conns.append(&mut state.inboxes[shard].lock());
        // Read every connection, offering its calls to admission.
        let mut progress = false;
        for (slot, conn) in conns.iter_mut().enumerate() {
            // What was answered in place (sheds, pings, admin, gossip)
            // leaves now, not behind the drain.
            let swept = read_conn(&state, slot, conn, &mut admission, &mut scratch, &bytes_in)
                .and_then(|read| Ok(flush_out(conn, &bytes_out)? | read));
            match swept {
                Ok(moved) => progress |= moved,
                // Peer hung up, sent garbage framing, or did not open with
                // the protocol preamble.
                Err(_) => conn.closed = true,
            }
        }
        if admission.depth() > 0 {
            depth_gauge.set(admission.depth() as i64);
            drain(&state, &mut admission, &mut conns);
            depth_gauge.set(0);
            bound_gauge.set(admission.bound() as i64);
            progress = true;
        }
        // Flush what the drain answered; then drop the closed connections
        // and move gossip out from behind this loop's calls.
        let mut i = 0;
        while i < conns.len() {
            match flush_out(&mut conns[i], &bytes_out) {
                Ok(moved) => progress |= moved,
                Err(_) => conns[i].closed = true,
            }
            if conns[i].closed {
                // The explicit shutdown is what the peer sees — `abort`'s
                // clone of the socket would otherwise keep it open.
                let dropped = conns.swap_remove(i);
                let _ = dropped.stream.shutdown(std::net::Shutdown::Both);
                state.conns.lock().remove(&dropped.id);
                state.active.fetch_sub(1, Ordering::SeqCst);
                active_gauge.add(-1);
                progress = true;
            } else if conns[i].gossip && shard != gossip_shard {
                let conn = conns.swap_remove(i);
                state.inboxes[gossip_shard].lock().push(conn);
            } else {
                i += 1;
            }
        }
        if progress {
            idle.reset();
        } else {
            idle.pause();
        }
    }

    // Drain: every pass ends with the queue empty, so what is left is
    // response bytes; flush them before closing, bounded so a stuck peer
    // cannot wedge shutdown.
    let deadline = Instant::now() + DRAIN_FLUSH_BUDGET;
    for conn in &mut conns {
        while flush_out(conn, &bytes_out).is_ok()
            && !conn.machine.pending_out().is_empty()
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        state.active.fetch_sub(1, Ordering::SeqCst);
        active_gauge.add(-1);
    }
}

/// Read what one socket has and route every complete request. Returns
/// whether bytes arrived; an `Err` means the connection is done once this
/// pass has answered what it read.
fn read_conn(
    state: &ServerState,
    slot: usize,
    conn: &mut ShardConn,
    admission: &mut Admission<Call>,
    scratch: &mut [u8],
    bytes_in: &Arc<rndi_obs::Counter>,
) -> std::io::Result<bool> {
    // Read at most READ_CHUNK per pass so shard siblings stay served.
    let mut read_total = 0;
    let mut eof = false;
    while read_total < scratch.len() {
        match conn.stream.read(&mut scratch[read_total..]) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => read_total += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if read_total > 0 {
        bytes_in.add(read_total as u64);
        let invalid = |e: NamingError| std::io::Error::new(ErrorKind::InvalidData, e.to_string());
        let inbound = conn
            .machine
            .receive(&scratch[..read_total])
            .map_err(invalid)?;
        // One read is one arrival: its calls are offered at one instant.
        let now = Instant::now();
        for req in inbound {
            respond(state, slot, conn, admission, req, now).map_err(invalid)?;
        }
    }
    if eof {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    Ok(read_total > 0)
}

/// Run the queue to empty. The instant one call finishes is the instant
/// admission decides the next at; answers wait in the output buffers for
/// the pass's flush.
fn drain(state: &ServerState, admission: &mut Admission<Call>, conns: &mut [ShardConn]) {
    let mut now = Instant::now();
    while let Some(next) = admission.next(now) {
        let (call, body) = match next {
            Next::Run(pending) => {
                let (body, end) =
                    handle_call(state, &pending.call, pending.admitted, pending.budget);
                let served = match &body {
                    ResponseBody::Ok(_) => Served::InBudget,
                    ResponseBody::Err(proto::WireError::Timeout { .. }) => Served::Late,
                    _ => Served::Failed,
                };
                admission.complete(end.saturating_duration_since(now), served);
                now = end;
                (pending.call, body)
            }
            Next::Shed(call, shed) => {
                state.shed[shed.reason as usize].inc();
                (call, ResponseBody::Err(proto::encode_error(&shed.error())))
            }
        };
        let conn = &mut conns[call.slot];
        if conn.machine.push_response(call.req_id, body).is_err() {
            conn.closed = true;
        }
    }
}

fn flush_out(conn: &mut ShardConn, bytes_out: &Arc<rndi_obs::Counter>) -> std::io::Result<bool> {
    let mut moved = false;
    while !conn.machine.pending_out().is_empty() {
        match conn.stream.write(conn.machine.pending_out()) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => {
                moved = true;
                bytes_out.add(n as u64);
                conn.machine.consume_out(n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(moved)
}

/// Route one decoded request: pings, admin scrapes, gossip and malformed
/// frames are answered in place (bounded work); calls are offered to
/// admission at `now` — shed at once, or queued for [`drain`].
///
/// Shed responses can overtake queued ones from the same socket; that is
/// fine because responses match by request ID.
fn respond(
    state: &ServerState,
    slot: usize,
    conn: &mut ShardConn,
    admission: &mut Admission<Call>,
    req: Inbound,
    now: Instant,
) -> Result<()> {
    let body = match req.msg {
        InboundMsg::Ping => ResponseBody::Pong,
        InboundMsg::Call {
            op,
            deadline_ms,
            trace,
        } => {
            let call = Call {
                slot,
                req_id: req.req_id,
                op,
                trace,
            };
            match admission.offer(&mut conn.quota, call, deadline_ms, now) {
                Ok(()) => return Ok(()),
                Err(shed) => {
                    state.shed[shed.reason as usize].inc();
                    ResponseBody::Err(proto::encode_error(&shed.error()))
                }
            }
        }
        InboundMsg::Admin(admin) => ResponseBody::Admin(handle_admin(state, admin)),
        InboundMsg::Gossip(payload) => {
            let handler = state.gossip.lock().clone();
            match handler {
                Some(h) => {
                    conn.gossip = true;
                    ResponseBody::Gossip(h.handle(&payload))
                }
                None => ResponseBody::Err(proto::encode_error(&NamingError::service(
                    "no cluster membership plane on this node",
                ))),
            }
        }
        InboundMsg::Malformed(e) => ResponseBody::Err(proto::encode_error(&e)),
    };
    conn.machine.push_response(req.req_id, body)
}

/// Serve a telemetry request inline on the event loop. Every variant is
/// bounded work: a registry snapshot, a ring scan, or an atomic sweep.
fn handle_admin(state: &ServerState, req: AdminRequest) -> AdminReply {
    match req {
        AdminRequest::Metrics => AdminReply::Metrics(state.registry.snapshot()),
        AdminRequest::TraceDump { trace_id, slowest } => {
            let ring = rndi_obs::trace::ring();
            let spans = if trace_id != 0 {
                ring.trace(trace_id)
            } else if slowest != 0 {
                // Full traces of the N slowest roots, deduped across
                // traces that share spans (they shouldn't, but the ring
                // is best-effort evidence, not a ledger).
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for root in ring.slowest_roots(slowest as usize) {
                    for span in ring.trace(root.trace_id) {
                        if seen.insert(span.span_id) {
                            out.push(span);
                        }
                    }
                }
                out
            } else {
                ring.snapshot()
            };
            AdminReply::TraceDump(spans)
        }
        AdminRequest::Health => AdminReply::Health(state.health()),
    }
}

/// Execute one call admission dispatched, under a "server" span nested
/// under the client's. Its budget ran from `admitted`, so queue wait shows
/// in the duration histogram, and a call that finishes past its budget
/// answers `Timeout` (it may have landed). Returns the answer and the
/// instant the call finished.
fn handle_call(
    state: &ServerState,
    call: &Call,
    admitted: Instant,
    budget: Option<Duration>,
) -> (ResponseBody, Instant) {
    let instruments = state.req_instruments(&call.op.kind);
    let server_ctx = call
        .trace
        .map_or_else(TraceCtx::root, |parent| parent.child());
    let executed = proto::decode_op(&call.op).map(|mut op| {
        op.set_trace_ctx(&server_ctx);
        (op.kind, state.backend.execute(&op))
    });
    let end = Instant::now();
    let took = end.saturating_duration_since(admitted);
    let result = executed.and_then(|(kind, mut result)| {
        if let Some(budget) = budget.filter(|budget| took > *budget) {
            result = Err(NamingError::Timeout {
                detail: format!("request exceeded its {budget:?} deadline"),
            });
        }
        let span_outcome = match &result {
            Ok(_) => SpanOutcome::Ok,
            Err(e) if e.is_continue() => SpanOutcome::Continue,
            Err(_) => SpanOutcome::Err,
        };
        let label = state.label.clone();
        let span = SpanRecord::new(
            &server_ctx,
            "server",
            label,
            kind.label(),
            span_outcome,
            took,
        );
        rndi_obs::trace::record(span);
        result.and_then(|out| proto::encode_outcome(&out))
    });
    if result.is_ok() {
        instruments.ok.inc();
    } else {
        instruments.err.inc();
    }
    instruments.duration.record_duration(took);
    let body = match result {
        Ok(out) => ResponseBody::Ok(out),
        Err(e) => ResponseBody::Err(proto::encode_error(&e)),
    };
    (body, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetClient;
    use rndi_core::context::ContextExt;
    use rndi_core::env::keys;
    use rndi_core::op::{NamingOp, OpKind, OpOutcome};
    use std::sync::mpsc;

    /// Answers every lookup; a lookup of `"block"` first reports that it
    /// is executing and then waits to be released.
    struct GateBackend {
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl ProviderBackend for GateBackend {
        fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
            if op.kind != OpKind::Lookup {
                return Err(NamingError::unsupported("gate backend: lookups only"));
            }
            if op.name.to_string() == "block" {
                let _ = self.entered.lock().send(());
                let _ = self.release.lock().recv();
            }
            Ok(OpOutcome::Wire(rndi_core::op::codec::marshal(
                &rndi_core::value::BoundValue::Str("v".into()),
            )?))
        }

        fn provider_id(&self) -> String {
            "gate".to_string()
        }
    }

    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").expect("procfs").count()
    }

    #[test]
    fn connection_churn_leaks_no_descriptors_and_abort_still_tears_down_mid_request() {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let backend = Arc::new(GateBackend {
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        });
        let server = NetServer::with_config(
            backend,
            ServerConfig {
                shards: 1,
                ..ServerConfig::default()
            },
        )
        .expect("server starts");
        let addr = server.local_addr().to_string();
        let env = Environment::new().with(keys::RETRY_MAX_ATTEMPTS, "1");

        let wait_idle = |server: &NetServer| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while server.state.active.load(Ordering::Relaxed) > 0 {
                assert!(Instant::now() < deadline, "server never saw the hang-up");
                std::thread::yield_now();
            }
        };

        let fds_before = open_fds();
        for _ in 0..300 {
            let client = NetClient::connect(addr.clone(), &env).unwrap();
            client.lookup_str("k").unwrap();
            drop(client);
            wait_idle(&server);
        }
        assert_eq!(
            server.state.conns.lock().len(),
            0,
            "every abort handle was pruned with its connection"
        );
        // Sibling tests in this binary open sockets of their own; a leak
        // would be one descriptor per cycle.
        let grown = open_fds().saturating_sub(fds_before);
        assert!(grown < 100, "{grown} descriptors leaked over 300 cycles");

        // A request that is executing when `abort` lands: the client sees
        // the socket die while the backend is still inside `execute`.
        let client = NetClient::connect(addr, &env).unwrap();
        let caller = std::thread::spawn(move || client.lookup_str("block"));
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("request reached the backend");
        assert_eq!(server.state.conns.lock().len(), 1);
        let aborter = std::thread::spawn(move || server.abort());
        let outcome = caller.join().expect("caller thread");
        assert!(outcome.is_err(), "torn down mid-request: {outcome:?}");
        release_tx.send(()).expect("backend still waiting");
        aborter.join().expect("abort joins the server threads");
    }
}
