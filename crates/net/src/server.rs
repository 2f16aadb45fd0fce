//! `NetServer`: hosts any [`ProviderBackend`] on a shard-per-core
//! nonblocking event loop.
//!
//! The accept thread classifies nothing and blocks on nothing: it hands
//! each new socket to one of `rndi.net.server.shards` worker shards in
//! round-robin order. Each shard owns its connections outright — no
//! cross-thread handoff per request — and drives them through the
//! sans-IO [`ServerConn`] state machine:
//! nonblocking reads feed the machine, decoded requests execute inline
//! against the backend, and responses drain from the machine's output
//! buffer back through nonblocking writes. Because one shard scans many
//! sockets, thousands of idle connections cost memory, not threads; an
//! adaptive backoff (spin → yield → escalating sleep) keeps an idle
//! shard off the CPU while keeping single-digit-microsecond reaction
//! when traffic resumes.
//!
//! A connection that speaks the `Gossip` family is moved to a shard of
//! its own, started with the first [`NetServer::set_gossip_handler`]: a
//! naming call may wait on the group (a replicated write waits for its
//! ordered delivery), and the frames it waits for must never sit unread
//! behind it on the same event loop.
//!
//! Pipelined clients get pipelined service for free: every complete
//! frame buffered on a socket is decoded, executed, and answered in one
//! pass, so N queued requests cost one read wakeup and (at most) one
//! write flush.
//!
//! [`NetServer::shutdown`] drains: accepting stops, buffered requests
//! are answered, output buffers flush, then sockets close.
//! [`NetServer::abort`] is the unclean variant used by fault-injection
//! tests: it tears the sockets down mid-request.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::op::NamingOp;
use rndi_core::spi::ProviderBackend;
use rndi_obs::metrics::{global_registry, names, Registry};
use rndi_obs::{HealthSummary, SpanOutcome, SpanRecord, TraceCtx};

use crate::conn::{Inbound, InboundMsg, ResponseBody, ServerConn};
use crate::proto::{self, AdminReply, AdminRequest, GossipReply, GossipRequest};

/// Per-pass read budget per connection, so one firehose socket cannot
/// starve its shard siblings.
const READ_CHUNK: usize = 64 * 1024;

/// Idle passes a shard spin-yields before it starts sleeping.
const SPIN_PASSES: u32 = 1_500;

/// Ceiling for the escalating idle sleep.
const MAX_IDLE_SLEEP: Duration = Duration::from_millis(1);

/// How long a draining shard keeps trying to flush response bytes.
const DRAIN_FLUSH_BUDGET: Duration = Duration::from_millis(500);

/// Multiplicative decrease the adaptive admission bound takes on a
/// deadline signal (an op expired in queue or overran its budget).
const AIMD_DECREASE: f64 = 0.7;

/// Floor of the adaptive admission bound: never stop admitting entirely.
const AIMD_MIN_LIMIT: f64 = 1.0;

/// Weight of the newest sample in the service-time EMA that prices the
/// `retry_after_ms` hints.
const SERVICE_EMA_ALPHA: f64 = 0.1;

/// Ceiling on any `retry_after_ms` hint the server emits.
const MAX_RETRY_AFTER_MS: f64 = 10_000.0;

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
    /// `0` (the default) leaves the queue unbounded and keeps the
    /// pre-admission execute-inline fast path.
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
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            max_conns: 64,
            deadline_ms: 5_000,
            shards: 0,
            queue_depth: 0,
            rate_ops: 0,
            rate_burst: 0,
            adaptive: false,
        }
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
    /// Shard inboxes, kept for the health probe: their depth is the
    /// accepted-but-not-yet-adopted backlog. The last one is the gossip
    /// shard's: shards move connections that speak gossip there.
    inboxes: Vec<Arc<ShardInbox>>,
    /// Per-shard admission-queue depths, mirrored out of each shard's
    /// event loop so the health probe can sum them without touching it.
    queue_depths: Vec<Arc<AtomicU64>>,
    /// Per-shard effective admission bounds (0 = unbounded), mirrored the
    /// same way.
    conc_limits: Vec<Arc<AtomicU64>>,
    /// Shed counters by reason, indexed by [`ShedReason`].
    shed: [Arc<rndi_obs::Counter>; 3],
    /// Per-op-kind request instruments, resolved once — a registry lookup
    /// allocates label strings under a global lock, far too expensive on
    /// the per-request path.
    req_instruments: Mutex<HashMap<String, ReqInstruments>>,
    /// Serves `Gossip` envelopes when a cluster membership plane attached
    /// itself; otherwise gossip requests answer a typed error.
    gossip: Mutex<Option<Arc<dyn GossipHandler>>>,
    /// Membership figures the attached plane keeps current, folded into
    /// the `Admin(Health)` answer.
    membership: Arc<MembershipStats>,
}

impl ServerState {
    /// Index of the gossip shard: the last inbox, which the accept loop
    /// never targets.
    fn gossip_shard(&self) -> usize {
        self.inboxes.len() - 1
    }
}

/// Serves the `Gossip` request family — membership sync exchanges and
/// ferried group-communication frames. Runs inline on the shard event
/// loop, so implementations must be quick and never block on the network.
pub trait GossipHandler: Send + Sync {
    fn handle(&self, req: GossipRequest) -> GossipReply;
}

/// Membership figures a cluster plane publishes for the health probe —
/// plain atomics so `Admin(Health)` stays lock-free and nodes without a
/// plane report zeros.
#[derive(Default)]
pub struct MembershipStats {
    pub view_epoch: AtomicU64,
    pub alive: AtomicU64,
    pub suspect: AtomicU64,
    pub dead: AtomicU64,
}

#[derive(Clone)]
struct ReqInstruments {
    ok: Arc<rndi_obs::Counter>,
    err: Arc<rndi_obs::Counter>,
    duration: Arc<rndi_obs::metrics::Histogram>,
}

impl ServerState {
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
            .map(|inbox| inbox.incoming.lock().len() as u64)
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
            queue_depth: self
                .queue_depths
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .sum(),
            concurrency_limit: self
                .conc_limits
                .iter()
                .map(|l| l.load(Ordering::Relaxed))
                .sum(),
            shed_total: self.shed.iter().map(|c| c.get()).sum(),
            view_epoch: self.membership.view_epoch.load(Ordering::Relaxed),
            members_alive: self.membership.alive.load(Ordering::Relaxed),
            members_suspect: self.membership.suspect.load(Ordering::Relaxed),
            members_dead: self.membership.dead.load(Ordering::Relaxed),
        }
    }
}

/// Why the admission layer refused a call before dispatch; doubles as
/// the index into `ServerState::shed`.
#[derive(Clone, Copy)]
enum ShedReason {
    /// The shard's admission queue was at its (possibly adaptive) bound.
    Queue = 0,
    /// The connection's token bucket was empty.
    Rate = 1,
    /// The call's deadline budget was spent while it waited in queue.
    Deadline = 2,
}

/// One connection owned by a shard: the socket plus its protocol state
/// machine.
struct ShardConn {
    /// Stable handle queued [`Pending`] entries point back at, and the key
    /// of `abort`'s clone in `ServerState::conns`; assigned by the accept
    /// loop, unique for the server's life.
    id: u64,
    stream: TcpStream,
    machine: ServerConn,
    /// Admission rate limiter, present when `rate_ops > 0`.
    bucket: Option<TokenBucket>,
    /// Has carried a `Gossip` request a membership plane answered.
    gossip: bool,
}

/// Per-connection token bucket: `rate` tokens/sec refill up to `burst`.
struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    fn new(rate_ops: u64, rate_burst: u64) -> TokenBucket {
        let rate = rate_ops as f64;
        let burst = if rate_burst == 0 {
            rate
        } else {
            rate_burst as f64
        }
        .max(1.0);
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            refilled: Instant::now(),
        }
    }

    /// Take one token, or say how many milliseconds until one refills.
    fn try_take(&mut self) -> std::result::Result<(), u64> {
        let now = Instant::now();
        let refill = now.duration_since(self.refilled).as_secs_f64() * self.rate;
        self.tokens = (self.tokens + refill).min(self.burst);
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let wait_s = (1.0 - self.tokens) / self.rate.max(f64::EPSILON);
            Err((wait_s * 1_000.0).ceil().clamp(1.0, MAX_RETRY_AFTER_MS) as u64)
        }
    }
}

/// One admitted call parked in a shard's admission queue.
struct Pending {
    conn_id: u64,
    req_id: u64,
    op: Box<proto::WireOp>,
    deadline_ms: u64,
    trace: Option<TraceCtx>,
    /// When admission accepted the call; queue wait counts against the
    /// op's deadline budget from here.
    admitted: Instant,
}

/// Per-shard admission control: the bounded call queue, the AIMD bound,
/// and the service-time estimate that prices `retry_after_ms` hints.
///
/// Each shard is a serial executor, so a bound on *waiting* calls is the
/// shard's concurrency limit: by Little's law it caps queue wait at
/// roughly `bound × service time`, which the controller walks down until
/// admitted calls stop missing their deadlines.
struct Admission {
    queue: VecDeque<Pending>,
    /// Configured queue bound; `0` = unbounded (admission off).
    configured: usize,
    adaptive: bool,
    /// Current AIMD bound, `AIMD_MIN_LIMIT ..= configured`.
    limit: f64,
    /// EMA of backend service time, milliseconds.
    ema_service_ms: f64,
    depth_gauge: Arc<rndi_obs::metrics::Gauge>,
    limit_gauge: Arc<rndi_obs::metrics::Gauge>,
    depth_mirror: Arc<AtomicU64>,
    limit_mirror: Arc<AtomicU64>,
}

impl Admission {
    fn new(state: &ServerState, shard: usize) -> Admission {
        let shard_label = shard.to_string();
        let labels: &[(&str, &str)] = &[("server", &state.label), ("shard", &shard_label)];
        let configured = state.config.queue_depth;
        let admission = Admission {
            queue: VecDeque::new(),
            configured,
            adaptive: state.config.adaptive && configured > 0,
            limit: configured.max(1) as f64,
            ema_service_ms: 0.0,
            depth_gauge: state.registry.gauge(names::NET_QUEUE_DEPTH, labels),
            limit_gauge: state.registry.gauge(names::NET_CONCURRENCY_LIMIT, labels),
            depth_mirror: state.queue_depths[shard].clone(),
            limit_mirror: state.conc_limits[shard].clone(),
        };
        admission.publish();
        admission
    }

    /// Whether calls route through the queue at all. Off (the default)
    /// keeps the pre-existing execute-inline fast path.
    fn engaged(&self) -> bool {
        self.configured > 0
    }

    /// The effective bound on waiting calls right now.
    fn bound(&self) -> usize {
        if self.adaptive {
            self.limit.max(AIMD_MIN_LIMIT) as usize
        } else {
            self.configured
        }
    }

    /// Mirror queue depth and bound into the gauges and health atomics.
    fn publish(&self) {
        let depth = self.queue.len() as u64;
        self.depth_gauge.set(depth as i64);
        self.depth_mirror.store(depth, Ordering::Relaxed);
        let bound = if self.engaged() {
            self.bound() as u64
        } else {
            0
        };
        self.limit_gauge.set(bound as i64);
        self.limit_mirror.store(bound, Ordering::Relaxed);
    }

    /// Backoff hint for a shed caller: roughly one queue's worth of
    /// estimated service time.
    fn retry_after_ms(&self) -> u64 {
        let per_op = self.ema_service_ms.max(1.0);
        (self.queue.len().max(1) as f64 * per_op).clamp(1.0, MAX_RETRY_AFTER_MS) as u64
    }

    fn observe_service(&mut self, took: Duration) {
        let ms = took.as_secs_f64() * 1_000.0;
        self.ema_service_ms = if self.ema_service_ms == 0.0 {
            ms
        } else {
            self.ema_service_ms * (1.0 - SERVICE_EMA_ALPHA) + ms * SERVICE_EMA_ALPHA
        };
    }

    /// Additive increase: an in-budget completion earns capacity back,
    /// slower the closer the bound already is (1/limit per completion).
    fn on_in_budget(&mut self) {
        if self.adaptive {
            let ceiling = self.configured as f64;
            self.limit = (self.limit + 1.0 / self.limit.max(1.0)).min(ceiling);
        }
    }

    /// Multiplicative decrease on a deadline signal: admitted work is
    /// expiring, so the admission window is too wide.
    fn on_deadline_signal(&mut self) {
        if self.adaptive {
            self.limit = (self.limit * AIMD_DECREASE).max(AIMD_MIN_LIMIT);
        }
    }
}

/// The accept thread parks new sockets here; the owning shard adopts
/// them at the top of its next pass.
struct ShardInbox {
    /// Accepted (or, on the gossip shard, handed-over) connections.
    incoming: Mutex<Vec<ShardConn>>,
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
        let inboxes: Vec<Arc<ShardInbox>> = (0..=shard_count)
            .map(|_| {
                Arc::new(ShardInbox {
                    incoming: Mutex::new(Vec::new()),
                })
            })
            .collect();
        let shed = [
            registry.counter(names::NET_SHED, &[("server", &label), ("reason", "queue")]),
            registry.counter(names::NET_SHED, &[("server", &label), ("reason", "rate")]),
            registry.counter(
                names::NET_SHED,
                &[("server", &label), ("reason", "deadline")],
            ),
        ];
        let state = Arc::new(ServerState {
            backend,
            label: label.into(),
            config,
            registry,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            inboxes: inboxes.clone(),
            queue_depths: (0..=shard_count)
                .map(|_| Arc::new(AtomicU64::new(0)))
                .collect(),
            conc_limits: (0..=shard_count)
                .map(|_| Arc::new(AtomicU64::new(0)))
                .collect(),
            shed,
            req_instruments: Mutex::new(HashMap::new()),
            gossip: Mutex::new(None),
            membership: Arc::new(MembershipStats::default()),
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

    /// The server's telemetry label (`net:<backend provider id>`).
    pub fn label(&self) -> &str {
        &self.state.label
    }

    /// The registry this server's instruments land in.
    pub fn registry(&self) -> Arc<Registry> {
        self.state.registry.clone()
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

    /// The membership figures folded into `Admin(Health)`; a cluster
    /// plane keeps them current.
    pub fn membership_stats(&self) -> Arc<MembershipStats> {
        self.state.membership.clone()
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
    let mut next_shard = 0usize;
    let mut next_conn_id: u64 = 0;
    let mut idle = Backoff::new();
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                idle.reset();
                if state.active.load(Ordering::SeqCst) >= state.config.max_conns {
                    state
                        .counter(names::NET_CONNS, &[("event", "refused")])
                        .inc();
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                state
                    .counter(names::NET_CONNS, &[("event", "accepted")])
                    .inc();
                state.active.fetch_add(1, Ordering::SeqCst);
                active_gauge.add(1);
                next_conn_id += 1;
                if let Ok(clone) = stream.try_clone() {
                    state.conns.lock().insert(next_conn_id, clone);
                }
                inboxes[next_shard].incoming.lock().push(ShardConn {
                    id: next_conn_id,
                    stream,
                    machine: ServerConn::new(),
                    bucket: (state.config.rate_ops > 0)
                        .then(|| TokenBucket::new(state.config.rate_ops, state.config.rate_burst)),
                    gossip: false,
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
    let mut conns: Vec<ShardConn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut idle = Backoff::new();
    let mut admission = Admission::new(&state, shard);

    while !state.shutdown.load(Ordering::SeqCst) {
        conns.append(&mut state.inboxes[shard].incoming.lock());
        let mut progress = false;
        let mut i = 0;
        while i < conns.len() {
            match drive_conn(
                &state,
                &mut conns[i],
                &mut admission,
                &mut scratch,
                &bytes_in,
                &bytes_out,
            ) {
                Ok(moved) => {
                    progress |= moved;
                    // Gossip moves out from behind this loop's calls, once
                    // no admitted call of the connection still points here.
                    let conn = &conns[i];
                    if conn.gossip
                        && shard != gossip_shard
                        && !admission.queue.iter().any(|p| p.conn_id == conn.id)
                    {
                        let conn = conns.swap_remove(i);
                        state.inboxes[gossip_shard].incoming.lock().push(conn);
                    } else {
                        i += 1;
                    }
                }
                Err(_) => {
                    // Peer hung up, sent garbage framing, or did not open
                    // with the protocol preamble: drop the connection. The
                    // explicit shutdown is what the peer sees — `abort`'s
                    // clone of the socket would otherwise keep it open.
                    let dropped = conns.swap_remove(i);
                    let _ = dropped.stream.shutdown(std::net::Shutdown::Both);
                    state.conns.lock().remove(&dropped.id);
                    state.active.fetch_sub(1, Ordering::SeqCst);
                    active_gauge.add(-1);
                    progress = true;
                }
            }
        }
        progress |= drain_admitted(&state, &mut admission, &mut conns, &bytes_out);
        if progress {
            idle.reset();
        } else {
            idle.pause();
        }
    }

    // Drain: answer whatever is already buffered and flush responses out
    // before closing, bounded so a stuck peer cannot wedge shutdown.
    drain_admitted(&state, &mut admission, &mut conns, &bytes_out);
    let deadline = Instant::now() + DRAIN_FLUSH_BUDGET;
    for conn in &mut conns {
        while !conn.machine.pending_out().is_empty() && Instant::now() < deadline {
            match conn.stream.write(conn.machine.pending_out()) {
                Ok(0) => break,
                Ok(n) => {
                    bytes_out.add(n as u64);
                    conn.machine.consume_out(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        state.active.fetch_sub(1, Ordering::SeqCst);
        active_gauge.add(-1);
    }
}

/// One event-loop pass over one connection: flush queued output, read
/// whatever the socket has, execute every complete request, flush again.
/// Returns whether any bytes moved; an `Err` means the connection is done.
fn drive_conn(
    state: &ServerState,
    conn: &mut ShardConn,
    admission: &mut Admission,
    scratch: &mut [u8],
    bytes_in: &Arc<rndi_obs::Counter>,
    bytes_out: &Arc<rndi_obs::Counter>,
) -> std::io::Result<bool> {
    let mut moved = flush_out(conn, bytes_out)?;

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
        moved = true;
        bytes_in.add(read_total as u64);
        let inbound = conn
            .machine
            .receive(&scratch[..read_total])
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        for req in inbound {
            respond(state, conn, admission, req)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        }
        flush_out(conn, bytes_out)?;
    }
    if eof {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    Ok(moved)
}

/// Execute every queued call FIFO, shedding entries whose deadline budget
/// was spent waiting. Runs after the read sweep so one pass admits from
/// every connection before any queued work runs. Returns whether
/// anything ran or was answered.
fn drain_admitted(
    state: &ServerState,
    admission: &mut Admission,
    conns: &mut [ShardConn],
    bytes_out: &Arc<rndi_obs::Counter>,
) -> bool {
    if admission.queue.is_empty() {
        return false;
    }
    let mut progress = false;
    while let Some(entry) = admission.queue.pop_front() {
        // The peer may have hung up while its call queued.
        let Some(conn) = conns.iter_mut().find(|c| c.id == entry.conn_id) else {
            continue;
        };
        let deadline = effective_deadline(entry.deadline_ms, state.config.deadline_ms);
        let body = match deadline {
            Some(budget) if entry.admitted.elapsed() >= budget => {
                // The budget was spent in queue: reject cheaply instead of
                // computing an answer nobody is still waiting for.
                state.shed[ShedReason::Deadline as usize].inc();
                admission.on_deadline_signal();
                ResponseBody::Err(proto::WireError::Overloaded {
                    retry_after_ms: admission.retry_after_ms(),
                })
            }
            _ => {
                let started = Instant::now();
                let body = handle_call(
                    state,
                    &entry.op,
                    entry.deadline_ms,
                    entry.trace,
                    entry.admitted,
                );
                admission.observe_service(started.elapsed());
                match &body {
                    ResponseBody::Ok(_) => admission.on_in_budget(),
                    ResponseBody::Err(proto::WireError::Timeout { .. }) => {
                        admission.on_deadline_signal()
                    }
                    _ => {}
                }
                body
            }
        };
        progress = true;
        if conn.machine.push_response(entry.req_id, body).is_ok() {
            // Best-effort flush; a broken socket surfaces on the next
            // sweep's drive_conn and drops the connection there.
            let _ = flush_out(conn, bytes_out);
        }
    }
    admission.publish();
    progress
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

/// Route one decoded request: pings, admin scrapes, and malformed frames
/// are answered inline (bounded work); calls go through admission — shed
/// immediately, queued for [`drain_admitted`], or, with admission off,
/// executed inline exactly as before.
///
/// Shed responses can overtake queued ones from the same socket; that is
/// fine because responses match by request ID.
fn respond(
    state: &ServerState,
    conn: &mut ShardConn,
    admission: &mut Admission,
    req: Inbound,
) -> Result<()> {
    let body = match req.msg {
        InboundMsg::Ping => ResponseBody::Pong,
        InboundMsg::Call {
            op,
            deadline_ms,
            trace,
        } => {
            if let Some(bucket) = conn.bucket.as_mut() {
                if let Err(retry_after_ms) = bucket.try_take() {
                    state.shed[ShedReason::Rate as usize].inc();
                    return conn.machine.push_response(
                        req.req_id,
                        ResponseBody::Err(proto::WireError::Overloaded { retry_after_ms }),
                    );
                }
            }
            if admission.engaged() {
                if admission.queue.len() >= admission.bound() {
                    state.shed[ShedReason::Queue as usize].inc();
                    ResponseBody::Err(proto::WireError::Overloaded {
                        retry_after_ms: admission.retry_after_ms(),
                    })
                } else {
                    admission.queue.push_back(Pending {
                        conn_id: conn.id,
                        req_id: req.req_id,
                        op,
                        deadline_ms,
                        trace,
                        admitted: Instant::now(),
                    });
                    admission.publish();
                    return Ok(());
                }
            } else {
                handle_call(state, &op, deadline_ms, trace, Instant::now())
            }
        }
        InboundMsg::Admin(admin) => ResponseBody::Admin(handle_admin(state, admin)),
        InboundMsg::Gossip(req) => {
            let handler = state.gossip.lock().clone();
            match handler {
                Some(h) => {
                    conn.gossip = true;
                    ResponseBody::Gossip(h.handle(req))
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

/// Execute one admitted call. `start` is when the op's budget clock began
/// — admission time for queued calls, so queue wait counts against the
/// deadline and shows in the duration histogram the client's latency
/// percentiles are derived from.
fn handle_call(
    state: &ServerState,
    wire_op: &proto::WireOp,
    deadline_ms: u64,
    trace: Option<TraceCtx>,
    start: Instant,
) -> ResponseBody {
    let instruments = state.req_instruments(&wire_op.kind);
    let result = dispatch_call(state, wire_op, deadline_ms, trace, start);
    let took = start.elapsed();
    if result.is_ok() {
        instruments.ok.inc();
    } else {
        instruments.err.inc();
    }
    instruments.duration.record_duration(took);
    match result {
        Ok(out) => ResponseBody::Ok(out),
        Err(e) => ResponseBody::Err(proto::encode_error(&e)),
    }
}

fn dispatch_call(
    state: &ServerState,
    wire_op: &proto::WireOp,
    deadline_ms: u64,
    trace: Option<TraceCtx>,
    start: Instant,
) -> Result<proto::WireOutcome> {
    let mut op = proto::decode_op(wire_op)?;
    // Record a "server" span as a child of the envelope's context (the
    // client's span) and annotate the op with it, so the backend
    // pipeline's spans nest under this one.
    let server_ctx = match &trace {
        Some(parent) => parent.child(),
        None => TraceCtx::root(),
    };
    op.set_trace_ctx(&server_ctx);
    let deadline = effective_deadline(deadline_ms, state.config.deadline_ms);
    let result = run_with_deadline(state, &op, deadline, start);
    let span_outcome = match &result {
        Ok(_) => SpanOutcome::Ok,
        Err(e) if e.is_continue() => SpanOutcome::Continue,
        Err(_) => SpanOutcome::Err,
    };
    rndi_obs::trace::record(SpanRecord::new(
        &server_ctx,
        "server",
        state.label.clone(),
        op.kind.label(),
        span_outcome,
        start.elapsed(),
    ));
    result.and_then(|out| proto::encode_outcome(&out))
}

/// The stricter of the client's request budget and the server's own cap
/// (`0` on either side = that side imposes none).
fn effective_deadline(client_ms: u64, server_ms: u64) -> Option<Duration> {
    match (client_ms, server_ms) {
        (0, 0) => None,
        (0, s) => Some(Duration::from_millis(s)),
        (c, 0) => Some(Duration::from_millis(c)),
        (c, s) => Some(Duration::from_millis(c.min(s))),
    }
}

fn run_with_deadline(
    state: &ServerState,
    op: &NamingOp,
    deadline: Option<Duration>,
    start: Instant,
) -> Result<rndi_core::op::OpOutcome> {
    if let Some(budget) = deadline {
        if start.elapsed() >= budget {
            return Err(NamingError::Timeout {
                detail: format!("request expired before dispatch ({budget:?} budget)"),
            });
        }
    }
    let result = state.backend.execute(op);
    if let Some(budget) = deadline {
        if start.elapsed() > budget {
            // The op may have landed; deadline semantics report the miss
            // (the client's socket timeout has likely fired anyway).
            return Err(NamingError::Timeout {
                detail: format!("request exceeded its {budget:?} deadline"),
            });
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetClient;
    use rndi_core::context::ContextExt;
    use rndi_core::env::keys;
    use rndi_core::op::{OpKind, OpOutcome};
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
