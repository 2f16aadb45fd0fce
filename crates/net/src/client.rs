//! `NetClient`: a [`ProviderBackend`] whose backing service is a remote
//! [`NetServer`](crate::server::NetServer).
//!
//! Because the client is *itself* a backend, the whole existing pipeline
//! stack — cache, retry, stats, obs — composes over it unchanged:
//! [`NetClient::connect`] returns a standard
//! [`ProviderPipeline`] whose innermost
//! layer speaks TCP. Transport failures map to transient
//! [`NamingError::ServiceFailure`]/[`NamingError::Timeout`] errors, which
//! is exactly what the retry interceptor re-submits, so
//! `rndi.pipeline.retry.max-attempts=3` buys reconnect-on-drop for free.
//!
//! ## Multiplexed, pipelined connections
//!
//! The client **multiplexes** concurrent calls over a small pool of
//! connections instead of checking out one socket per request. Each call
//! stamps its envelope with a fresh request ID, registers a response
//! slot, and writes under a brief send lock; the response side uses a
//! *caller-as-driver* scheme — whichever caller can take the read lock
//! drives the socket, delivering responses to their owners' slots by
//! request ID, and hands the read baton to another waiter when its own
//! answer arrives. The serial case therefore never pays a cross-thread
//! handoff (the one caller writes, then immediately reads its own reply),
//! while N concurrent callers share one socket with requests pipelined
//! back-to-back up to `rndi.net.client.pipeline-depth` in flight per
//! connection.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::name::CompoundSyntax;
use rndi_core::op::{NamingOp, OpOutcome};
use rndi_core::spi::{ProviderBackend, ProviderPipeline, UrlContextFactory};
use rndi_core::url::RndiUrl;
use rndi_obs::metrics::{self, names};
use rndi_obs::{SpanOutcome, SpanRecord, TraceCtx};

use crate::conn::{ClientConn, ClientDecoder, ClientEncoder};
use crate::proto::{self, AdminReply, AdminRequest, Envelope, EnvelopeBody};

/// Resolved client configuration (see the `rndi.net.*` environment keys).
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Per-request deadline budget in milliseconds; `0` disables. Also
    /// used as the socket read/write timeout.
    pub deadline_ms: u64,
    /// Multiplexed connections to keep per endpoint.
    pub pool_size: usize,
    /// Maximum in-flight requests per connection before the pool prefers
    /// dialing another.
    pub pipeline_depth: usize,
    /// Hard cap on total pooled connections, redials included. Resolved
    /// at parse time: the `0 = pool-size` default is already applied.
    pub max_pool: usize,
    /// Idle milliseconds before a pooled connection is evicted; `0`
    /// disables idle eviction.
    pub idle_ms: u64,
}

impl ClientConfig {
    /// Read the `rndi.net.*` keys strictly: a present-but-unparsable value
    /// is a [`NamingError::ConfigurationError`], not a silent default.
    pub fn from_env(env: &Environment) -> Result<ClientConfig> {
        let pool_size = (env.try_get_u64(keys::NET_CLIENT_POOL_SIZE, 4)? as usize).max(1);
        let max_pool = match env.try_get_u64(keys::NET_CLIENT_MAX_POOL, 0)? as usize {
            0 => pool_size,
            n => n,
        };
        Ok(ClientConfig {
            deadline_ms: env.try_get_u64(keys::NET_DEADLINE_MS, 5_000)?,
            pool_size,
            pipeline_depth: (env.try_get_u64(keys::NET_CLIENT_PIPELINE_DEPTH, 32)? as usize).max(1),
            max_pool,
            idle_ms: env.try_get_u64(keys::NET_CLIENT_IDLE_MS, 30_000)?,
        })
    }

    /// Steady-state pooled connections to keep: the pool-size target,
    /// never above the hard cap.
    fn keep(&self) -> usize {
        self.pool_size.min(self.max_pool)
    }
}

/// What a response-driving caller delivers to a waiting caller's slot.
enum Delivery {
    /// Your response body.
    Body(EnvelopeBody),
    /// The previous driver is done; a waiter must take over the read side.
    TakeOver,
    /// The connection failed; all in-flight requests are lost.
    Broken(String),
}

struct MuxWriter {
    enc: ClientEncoder,
    stream: TcpStream,
}

struct MuxReader {
    dec: ClientDecoder,
    stream: TcpStream,
    scratch: Vec<u8>,
}

/// One multiplexed connection: many in-flight request IDs over one
/// socket. Send and receive halves lock independently; `pending` maps
/// request IDs to the channel of the caller awaiting that response.
struct MuxConn {
    writer: Mutex<MuxWriter>,
    reader: Mutex<MuxReader>,
    pending: Mutex<HashMap<u64, SyncSender<Delivery>>>,
    broken: AtomicBool,
    /// Milliseconds since the owning client's epoch at last checkout —
    /// the idle-eviction clock.
    last_used: AtomicU64,
}

impl MuxConn {
    fn inflight(&self) -> usize {
        self.pending.lock().len()
    }

    fn touch(&self, now_ms: u64) {
        self.last_used.store(now_ms, Ordering::Relaxed);
    }

    fn idle_for(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.last_used.load(Ordering::Relaxed))
    }

    /// Mark the connection dead and fail every in-flight request.
    fn fail(&self, detail: &str) {
        self.broken.store(true, Ordering::SeqCst);
        let waiters: Vec<_> = self.pending.lock().drain().collect();
        for (_, tx) in waiters {
            let _ = tx.try_send(Delivery::Broken(detail.to_string()));
        }
    }

    /// Hand the read baton to some waiting caller, if any.
    fn wake_someone(&self) {
        let pending = self.pending.lock();
        for tx in pending.values() {
            match tx.try_send(Delivery::TakeOver) {
                Ok(()) => return,
                // Full means that waiter already has a wakeup queued.
                Err(TrySendError::Full(_)) => return,
                // Disconnected: that caller gave up (timeout); try another.
                Err(TrySendError::Disconnected(_)) => continue,
            }
        }
    }
}

/// A pooled TCP client for one server endpoint.
pub struct NetClient {
    endpoint: String,
    config: ClientConfig,
    /// Live multiplexed connections, shared by all callers.
    mux_pool: Mutex<Vec<Arc<MuxConn>>>,
    label: Arc<str>,
    /// Zero point of the pool's idle clock.
    epoch: Instant,
    /// Instrument handles resolved once at construction — a registry
    /// lookup allocates label strings under a global lock, which is too
    /// expensive per request.
    bytes_out: Arc<metrics::Counter>,
    bytes_in: Arc<metrics::Counter>,
    events: Vec<(&'static str, Arc<metrics::Counter>)>,
    pool_gauge: Arc<metrics::Gauge>,
    evicted_idle: Arc<metrics::Counter>,
    evicted_cap: Arc<metrics::Counter>,
}

impl NetClient {
    /// A bare client backend for `endpoint` (`host:port`).
    pub fn new(endpoint: impl Into<String>, env: &Environment) -> Result<NetClient> {
        let endpoint = endpoint.into();
        let label = format!("net-client:{endpoint}");
        let bytes_out = metrics::counter(names::NET_BYTES, &[("server", &label), ("dir", "out")]);
        let bytes_in = metrics::counter(names::NET_BYTES, &[("server", &label), ("dir", "in")]);
        let label: Arc<str> = Arc::from(label.as_str());
        let events = ["reuse", "dial", "drop", "redial"]
            .into_iter()
            .map(|ev| {
                let counter = metrics::counter(
                    names::NET_CLIENT_EVENTS,
                    &[("endpoint", &endpoint), ("event", ev)],
                );
                (ev, counter)
            })
            .collect();
        let pool_gauge = metrics::gauge(names::NET_POOL_SIZE, &[("endpoint", &endpoint)]);
        let evicted_idle = metrics::counter(
            names::NET_POOL_EVICTIONS,
            &[("endpoint", &endpoint), ("reason", "idle")],
        );
        let evicted_cap = metrics::counter(
            names::NET_POOL_EVICTIONS,
            &[("endpoint", &endpoint), ("reason", "cap")],
        );
        Ok(NetClient {
            config: ClientConfig::from_env(env)?,
            mux_pool: Mutex::new(Vec::new()),
            endpoint,
            label,
            epoch: Instant::now(),
            bytes_out,
            bytes_in,
            events,
            pool_gauge,
            evicted_idle,
            evicted_cap,
        })
    }

    /// The standard composition: this client wrapped in the standard
    /// interceptor stack, so caching/retry/obs apply to remote calls
    /// exactly as they do to in-process backends.
    pub fn connect(
        endpoint: impl Into<String>,
        env: &Environment,
    ) -> Result<Arc<ProviderPipeline<NetClient>>> {
        let client = Arc::new(NetClient::new(endpoint, env)?);
        Ok(ProviderPipeline::standard(client, env))
    }

    /// The endpoint this client dials.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Live pooled connections right now (diagnostics, tests).
    pub fn pooled(&self) -> usize {
        self.mux_pool.lock().len()
    }

    fn event(&self, event: &str) {
        if let Some((_, counter)) = self.events.iter().find(|(name, _)| *name == event) {
            counter.inc();
        } else {
            metrics::counter(
                names::NET_CLIENT_EVENTS,
                &[("endpoint", &self.endpoint), ("event", event)],
            )
            .inc();
        }
    }

    fn timeout(&self) -> Option<Duration> {
        (self.config.deadline_ms > 0).then(|| Duration::from_millis(self.config.deadline_ms))
    }

    fn dial(&self) -> Result<TcpStream> {
        let stream = match self.timeout() {
            Some(budget) => {
                let addr = self.endpoint.parse().map_err(|e| {
                    NamingError::service(format!("endpoint {}: {e}", self.endpoint))
                })?;
                TcpStream::connect_timeout(&addr, budget)
            }
            None => TcpStream::connect(&self.endpoint),
        }
        .map_err(|e| io_error(&self.endpoint, "connect", e))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(self.timeout());
        let _ = stream.set_write_timeout(self.timeout());
        Ok(stream)
    }

    fn dial_mux(&self) -> Result<Arc<MuxConn>> {
        self.event("dial");
        let stream = self.dial()?;
        let read_half = stream
            .try_clone()
            .map_err(|e| io_error(&self.endpoint, "clone", e))?;
        let (enc, dec) = ClientConn::new().into_split();
        Ok(Arc::new(MuxConn {
            writer: Mutex::new(MuxWriter { enc, stream }),
            reader: Mutex::new(MuxReader {
                dec,
                stream: read_half,
                scratch: vec![0u8; 64 * 1024],
            }),
            pending: Mutex::new(HashMap::new()),
            broken: AtomicBool::new(false),
            last_used: AtomicU64::new(self.now_ms()),
        }))
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Drop broken connections and idle-expired ones (nothing in flight,
    /// untouched past `idle-ms`) from the pool. Call with the pool
    /// lock held; updates the size gauge.
    fn mux_sweep(&self, pool: &mut Vec<Arc<MuxConn>>) {
        pool.retain(|c| !c.broken.load(Ordering::SeqCst));
        if self.config.idle_ms > 0 {
            let now = self.now_ms();
            let before = pool.len();
            pool.retain(|c| c.inflight() > 0 || c.idle_for(now) <= self.config.idle_ms);
            let evicted = before - pool.len();
            if evicted > 0 {
                self.evicted_idle.add(evicted as u64);
                for _ in 0..evicted {
                    self.event("drop");
                }
            }
        }
        self.pool_gauge.set(pool.len() as i64);
    }

    /// Pool a freshly dialed connection, enforcing the hard cap: if
    /// the pool is full even after sweeping, the connection stays
    /// unpooled — its caller finishes the in-flight exchange and the
    /// socket closes when the last reference drops.
    fn mux_insert(&self, conn: &Arc<MuxConn>) {
        let mut pool = self.mux_pool.lock();
        self.mux_sweep(&mut pool);
        if pool.len() < self.config.max_pool {
            pool.push(conn.clone());
            self.pool_gauge.set(pool.len() as i64);
        } else {
            self.evicted_cap.inc();
            self.event("drop");
        }
    }

    /// Pick the least-loaded live connection, dialing a new one when all
    /// are at pipeline depth and the pool has room. The bool is whether
    /// the connection was freshly dialed (a failure on a *reused* one is
    /// retried once on a fresh dial).
    fn mux_checkout(&self) -> Result<(Arc<MuxConn>, bool)> {
        {
            let mut pool = self.mux_pool.lock();
            self.mux_sweep(&mut pool);
            if let Some(best) = pool.iter().min_by_key(|c| c.inflight()) {
                if best.inflight() < self.config.pipeline_depth || pool.len() >= self.config.keep()
                {
                    best.touch(self.now_ms());
                    self.event("reuse");
                    return Ok((best.clone(), false));
                }
            }
        }
        let conn = self.dial_mux()?;
        self.mux_insert(&conn);
        Ok((conn, true))
    }

    /// Send one call under `ctx` — the envelope's trace field is how the
    /// far side links its span to this hop.
    fn call(&self, wire_op: proto::WireOp, ctx: &TraceCtx) -> Result<OpOutcome> {
        // The request ID is assigned per attempt, under the writer lock.
        let mut env = Envelope {
            req_id: 0,
            body: EnvelopeBody::Call {
                op: Box::new(wire_op),
                deadline_ms: self.config.deadline_ms,
                trace: Some(*ctx),
            },
        };
        decode_body(self.roundtrip(&mut env)?)
    }

    /// One exchange with the standard resilience policy: a transport
    /// failure on a *reused* connection is retried once on a fresh dial
    /// (the server may simply have dropped the socket while it idled).
    fn roundtrip(&self, env: &mut Envelope) -> Result<EnvelopeBody> {
        let (conn, fresh) = self.mux_checkout()?;
        match self.mux_exchange(&conn, env) {
            Ok(body) => Ok(body),
            Err(e) if !fresh && is_transport(&e) => {
                conn.fail("superseded by redial");
                self.event("redial");
                let conn = self.dial_mux()?;
                self.mux_insert(&conn);
                self.mux_exchange(&conn, env)
            }
            Err(e) => Err(e),
        }
    }

    // --------------------------------------------------- admin scrape --

    /// Round-trip one admin request.
    fn admin(&self, req: AdminRequest) -> Result<AdminReply> {
        let mut env = Envelope {
            req_id: 0,
            body: EnvelopeBody::Admin(req),
        };
        match self.roundtrip(&mut env)? {
            EnvelopeBody::AdminOk(reply) => Ok(reply),
            EnvelopeBody::Err(e) => Err(proto::decode_error(&e)),
            other => Err(NamingError::service(format!(
                "unexpected admin response body: {other:?}"
            ))),
        }
    }

    /// Round-trip one gossip request, multiplexed over the same socket as
    /// data ops.
    pub fn gossip(&self, req: proto::GossipRequest) -> Result<proto::GossipReply> {
        let mut env = Envelope {
            req_id: 0,
            body: EnvelopeBody::Gossip(req),
        };
        match self.roundtrip(&mut env)? {
            EnvelopeBody::GossipOk(reply) => Ok(reply),
            EnvelopeBody::Err(e) => Err(proto::decode_error(&e)),
            other => Err(NamingError::service(format!(
                "unexpected gossip response body: {other:?}"
            ))),
        }
    }

    /// Scrape the remote server's metrics registry as a mergeable
    /// snapshot (multiplexed over the same socket as data ops).
    pub fn scrape_metrics(&self) -> Result<rndi_obs::MetricsSnapshot> {
        match self.admin(AdminRequest::Metrics)? {
            AdminReply::Metrics(snap) => Ok(snap),
            other => Err(admin_mismatch("metrics", &other)),
        }
    }

    /// Scrape the remote server's health summary.
    pub fn scrape_health(&self) -> Result<rndi_obs::HealthSummary> {
        match self.admin(AdminRequest::Health)? {
            AdminReply::Health(health) => Ok(health),
            other => Err(admin_mismatch("health", &other)),
        }
    }

    /// Every span of one trace still buffered in the remote trace ring.
    // Kept, with `dump_slowest`: the client half of the `TraceDump` modes
    // the server answers, which `tests/interop.rs` drives.
    pub fn dump_trace(&self, trace_id: u64) -> Result<Vec<SpanRecord>> {
        self.dump(AdminRequest::TraceDump {
            trace_id,
            slowest: 0,
        })
    }

    /// Full traces of the `n` slowest root spans in the remote ring.
    pub fn dump_slowest(&self, n: u32) -> Result<Vec<SpanRecord>> {
        self.dump(AdminRequest::TraceDump {
            trace_id: 0,
            slowest: n,
        })
    }

    /// Every span currently buffered in the remote trace ring.
    pub fn dump_spans(&self) -> Result<Vec<SpanRecord>> {
        self.dump(AdminRequest::TraceDump {
            trace_id: 0,
            slowest: 0,
        })
    }

    fn dump(&self, req: AdminRequest) -> Result<Vec<SpanRecord>> {
        match self.admin(req)? {
            AdminReply::TraceDump(spans) => Ok(spans),
            other => Err(admin_mismatch("trace dump", &other)),
        }
    }

    /// Send one call and wait for its response, driving the shared read
    /// side if no other caller is. Returns transport-level errors only;
    /// remote typed errors come back as `Ok(EnvelopeBody::Err(..))`.
    fn mux_exchange(&self, conn: &MuxConn, env: &mut Envelope) -> Result<EnvelopeBody> {
        let start = Instant::now();
        // Buffer 3: worst case one Body plus queued TakeOver wakeups.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Delivery>(3);
        let req_id;
        {
            let mut w = conn.writer.lock();
            req_id = w.enc.next_req_id();
            env.req_id = req_id;
            conn.pending.lock().insert(req_id, tx);
            let bytes = w.enc.encode(env)?;
            if let Err(e) = w.stream.write_all(&bytes) {
                conn.pending.lock().remove(&req_id);
                conn.fail(&format!("send {}: {e}", self.endpoint));
                return Err(io_error(&self.endpoint, "send", e));
            }
            self.bytes_out.add(bytes.len() as u64);
        }
        loop {
            // A driver may have delivered our body while we were between
            // states (e.g. just after a TakeOver wakeup).
            if let Ok(Delivery::Body(body)) = rx.try_recv() {
                return Ok(body);
            }
            if let Some(mut r) = conn.reader.try_lock() {
                let outcome = self.drive(conn, &mut r, req_id, start);
                drop(r);
                // Pass the read baton before returning, whatever happened
                // to our own request.
                if !conn.broken.load(Ordering::SeqCst) {
                    conn.wake_someone();
                }
                match outcome {
                    // The previous driver delivered our body just before
                    // we took the lock; it is waiting in our channel.
                    Ok(None) => continue,
                    Ok(Some(body)) => return Ok(body),
                    Err(e) => return Err(e),
                }
            }
            let wait = match self.remaining(start) {
                None => Duration::from_millis(50),
                Some(rem) if rem.is_zero() => {
                    conn.pending.lock().remove(&req_id);
                    return Err(NamingError::Timeout {
                        detail: format!("receive {}: response deadline", self.endpoint),
                    });
                }
                Some(rem) => rem.min(Duration::from_millis(50)),
            };
            match rx.recv_timeout(wait) {
                Ok(Delivery::Body(body)) => return Ok(body),
                Ok(Delivery::TakeOver) => continue,
                Ok(Delivery::Broken(detail)) => {
                    return Err(NamingError::service(format!("mux {detail}")))
                }
                // Re-check the clock and the reader lock; the 50ms cap
                // also covers a lost-baton race (driver exited just as we
                // entered recv).
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(NamingError::service(format!(
                        "mux receive {}: response slot dropped",
                        self.endpoint
                    )))
                }
            }
        }
    }

    fn remaining(&self, start: Instant) -> Option<Duration> {
        self.timeout()
            .map(|budget| budget.saturating_sub(start.elapsed()))
    }

    /// Drive the shared read side until our own response arrives,
    /// delivering everyone else's responses to their slots along the way.
    /// `Ok(None)` means a previous driver already delivered our body to
    /// our channel — the caller should receive from it, not the socket.
    fn drive(
        &self,
        conn: &MuxConn,
        r: &mut MuxReader,
        my_id: u64,
        start: Instant,
    ) -> Result<Option<EnvelopeBody>> {
        if conn.pending.lock().get(&my_id).is_none() {
            return Ok(None);
        }
        loop {
            let n = match r.stream.read(&mut r.scratch) {
                Ok(0) => {
                    conn.fail(&format!("receive {}: connection closed", self.endpoint));
                    return Err(NamingError::service(format!(
                        "receive {}: connection closed",
                        self.endpoint
                    )));
                }
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // Our read timed out. Give up on our request but leave
                    // the connection alive for the others.
                    conn.pending.lock().remove(&my_id);
                    return Err(io_error(&self.endpoint, "receive", e));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    conn.fail(&format!("receive {}: {e}", self.endpoint));
                    return Err(io_error(&self.endpoint, "receive", e));
                }
            };
            self.bytes_in.add(n as u64);
            let envelopes = match r.dec.receive(&r.scratch[..n]) {
                Ok(envs) => envs,
                Err(e) => {
                    conn.fail(&format!("receive {}: {e}", self.endpoint));
                    return Err(e);
                }
            };
            let mut mine = None;
            for env in envelopes {
                if env.req_id == my_id {
                    mine = Some(env.body);
                } else if let Some(tx) = conn.pending.lock().remove(&env.req_id) {
                    let _ = tx.send(Delivery::Body(env.body));
                }
            }
            if let Some(body) = mine {
                conn.pending.lock().remove(&my_id);
                return Ok(Some(body));
            }
            if let Some(rem) = self.remaining(start) {
                if rem.is_zero() {
                    conn.pending.lock().remove(&my_id);
                    return Err(NamingError::Timeout {
                        detail: format!("receive {}: response deadline", self.endpoint),
                    });
                }
            }
        }
    }
}

fn admin_mismatch(wanted: &str, got: &AdminReply) -> NamingError {
    NamingError::service(format!("expected {wanted} admin reply, got {got:?}"))
}

fn decode_body(body: EnvelopeBody) -> Result<OpOutcome> {
    match body {
        EnvelopeBody::Ok(out) => proto::decode_outcome(&out),
        EnvelopeBody::Err(e) => Err(proto::decode_error(&e)),
        other => Err(NamingError::service(format!(
            "unexpected response body: {other:?}"
        ))),
    }
}

/// Whether an error came from the transport (retryable on a fresh
/// connection) rather than from the remote naming semantics.
/// `Overloaded` deliberately stays out: a shed call travelled a healthy
/// connection to a live server that said "not now" — redialling would
/// only add connection churn on top of the overload. The retry layer
/// (not the pool) backs it off.
fn is_transport(e: &NamingError) -> bool {
    matches!(
        e,
        NamingError::ServiceFailure { .. } | NamingError::Timeout { .. }
    )
}

/// Map transport errors onto the naming error model: timeouts stay
/// timeouts, everything else is a (transient, hence retryable)
/// service failure.
fn io_error(endpoint: &str, stage: &str, e: std::io::Error) -> NamingError {
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        NamingError::Timeout {
            detail: format!("{stage} {endpoint}: {e}"),
        }
    } else {
        NamingError::service(format!("{stage} {endpoint}: {e}"))
    }
}

impl ProviderBackend for NetClient {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        let ctx = match op.trace_ctx() {
            Some(parent) => parent.child(),
            None => TraceCtx::root(),
        };
        let start = Instant::now();
        let result = proto::encode_op(op).and_then(|wire_op| self.call(wire_op, &ctx));
        let outcome = match &result {
            Ok(_) => SpanOutcome::Ok,
            Err(e) if e.is_continue() => SpanOutcome::Continue,
            Err(_) => SpanOutcome::Err,
        };
        rndi_obs::trace::record(SpanRecord::new(
            &ctx,
            "client",
            self.label.clone(),
            op.kind.label(),
            outcome,
            start.elapsed(),
        ));
        result
    }

    fn provider_id(&self) -> String {
        self.label.to_string()
    }

    fn compound_syntax(&self) -> CompoundSyntax {
        CompoundSyntax::path()
    }
}

/// URL factory for `rtcp://host:port` — lets `InitialContext` federation
/// mount remote servers like any other provider scheme.
pub struct NetClientFactory {
    env: Environment,
}

impl NetClientFactory {
    pub fn new(env: Environment) -> Self {
        NetClientFactory { env }
    }
}

impl UrlContextFactory for NetClientFactory {
    fn scheme(&self) -> &str {
        "rtcp"
    }

    fn create(
        &self,
        url: &RndiUrl,
        env: &Environment,
    ) -> Result<Arc<dyn rndi_core::context::DirContext>> {
        let port = url.port.ok_or_else(|| NamingError::ConfigurationError {
            detail: format!("rtcp URL needs an explicit port: {url:?}"),
        })?;
        let endpoint = format!("{}:{port}", url.host);
        let merged = if env.is_empty() { &self.env } else { env };
        Ok(NetClient::connect(endpoint, merged)? as Arc<dyn rndi_core::context::DirContext>)
    }
}
