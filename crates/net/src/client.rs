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
//! connections instead of checking out one socket per request. Each
//! connection is one sans-IO [`ClientConn`] and a table of answer slots
//! behind one lock, with one condition variable for its waiters. A call
//! takes a request ID, registers an empty slot and writes its envelope
//! under the send lock; then, while nobody is reading, it reads the socket
//! itself and fills every waiting caller's slot by request ID, and
//! otherwise it waits to be woken. The serial case therefore never pays a
//! cross-thread handoff (the one caller writes, then reads its own reply),
//! while N concurrent callers share one socket with requests pipelined
//! back-to-back, up to `rndi.net.client.pipeline-depth` in flight per
//! connection before the pool dials another.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
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

use crate::conn::ClientConn;
use crate::proto::{self, AdminReply, AdminRequest, Envelope, EnvelopeBody};

/// Milliseconds a pooled connection with nothing in flight may sit unused
/// before the next checkout evicts it.
const IDLE_EVICT_MS: u64 = 30_000;

/// Resolved client configuration (see the `rndi.net.*` environment keys).
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Per-request deadline budget in milliseconds; `0` disables. Also
    /// used as the socket read/write timeout.
    pub deadline_ms: u64,
    /// Most multiplexed connections pooled per endpoint, redials included.
    pub pool_size: usize,
    /// Maximum in-flight requests per connection before the pool prefers
    /// dialing another.
    pub pipeline_depth: usize,
}

impl ClientConfig {
    /// Read the `rndi.net.*` keys strictly: a present-but-unparsable value
    /// is a [`NamingError::ConfigurationError`], not a silent default.
    pub fn from_env(env: &Environment) -> Result<ClientConfig> {
        Ok(ClientConfig {
            deadline_ms: env.try_get_u64(keys::NET_DEADLINE_MS, 5_000)?,
            pool_size: (env.try_get_u64(keys::NET_CLIENT_POOL_SIZE, 4)? as usize).max(1),
            pipeline_depth: (env.try_get_u64(keys::NET_CLIENT_PIPELINE_DEPTH, 32)? as usize).max(1),
        })
    }
}

/// What a connection's callers share under its one lock.
struct Demux {
    conn: ClientConn,
    /// One slot per call in flight, filled with its answer when read; a
    /// call removes its own.
    slots: HashMap<u64, Option<EnvelopeBody>>,
    /// Whether a caller is reading the socket for everyone.
    reading: bool,
    /// Why the connection failed; every call still on it fails.
    broken: Option<String>,
    /// The read buffer, lent to whichever caller reads.
    buf: Vec<u8>,
}

impl Demux {
    /// Decode what was read into the waiting callers' slots. An answer
    /// whose caller gave up has no slot, and is dropped.
    fn deliver(&mut self, bytes: &[u8]) -> Result<()> {
        for answer in self.conn.receive(bytes)? {
            if let Some(slot) = self.slots.get_mut(&answer.req_id) {
                *slot = Some(answer.body);
            }
        }
        Ok(())
    }
}

/// One multiplexed connection: many in-flight request IDs over one socket.
struct MuxConn {
    stream: TcpStream,
    /// Held from taking a request ID to the end of its write, so frames go
    /// out whole and the preamble first.
    writer: Mutex<()>,
    /// A `std` mutex, for `Condvar` to wait on.
    demux: std::sync::Mutex<Demux>,
    /// Notified when a read has been delivered or the connection fails.
    ready: Condvar,
    /// Milliseconds since the owning client's epoch at last checkout —
    /// the idle-eviction clock.
    last_used: AtomicU64,
}

impl MuxConn {
    /// A caller that panicked under the lock left `Demux` usable: the
    /// reader clears `reading` before it decodes, and a lost read buffer
    /// reads as a closed connection.
    fn lock(&self) -> MutexGuard<'_, Demux> {
        self.demux.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn inflight(&self) -> usize {
        self.lock().slots.len()
    }

    fn touch(&self, now_ms: u64) {
        self.last_used.store(now_ms, Ordering::Relaxed);
    }

    fn idle_for(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.last_used.load(Ordering::Relaxed))
    }

    /// Mark the connection dead and wake every waiter to fail its call.
    fn fail(&self, demux: &mut Demux, detail: String) {
        demux.broken.get_or_insert(detail);
        self.ready.notify_all();
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
        Ok(Arc::new(MuxConn {
            stream: self.dial()?,
            writer: Mutex::new(()),
            demux: std::sync::Mutex::new(Demux {
                conn: ClientConn::new(),
                slots: HashMap::new(),
                reading: false,
                broken: None,
                buf: vec![0u8; 64 * 1024],
            }),
            ready: Condvar::new(),
            last_used: AtomicU64::new(self.now_ms()),
        }))
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Drop broken connections and idle-expired ones (nothing in flight,
    /// untouched past [`IDLE_EVICT_MS`]) from the pool. Call with the pool
    /// lock held; updates the size gauge.
    fn mux_sweep(&self, pool: &mut Vec<Arc<MuxConn>>) {
        pool.retain(|c| c.lock().broken.is_none());
        let now = self.now_ms();
        let before = pool.len();
        pool.retain(|c| c.inflight() > 0 || c.idle_for(now) <= IDLE_EVICT_MS);
        let evicted = before - pool.len();
        if evicted > 0 {
            self.evicted_idle.add(evicted as u64);
            for _ in 0..evicted {
                self.event("drop");
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
        if pool.len() < self.config.pool_size {
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
                if best.inflight() < self.config.pipeline_depth
                    || pool.len() >= self.config.pool_size
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
                conn.fail(&mut conn.lock(), "superseded by redial".to_string());
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

    /// Round-trip one membership payload, multiplexed over the same socket
    /// as data ops: the bytes go out as they are, and the answer comes back
    /// as the far node's handler wrote it.
    pub fn gossip(&self, payload: &[u8]) -> Result<Vec<u8>> {
        let mut env = Envelope {
            req_id: 0,
            body: EnvelopeBody::Gossip(payload.to_vec()),
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

    /// Send one call and wait for its answer, reading the socket for every
    /// caller while nobody else is. Returns transport-level errors only;
    /// remote typed errors come back as `Ok(EnvelopeBody::Err(..))`.
    fn mux_exchange(&self, conn: &MuxConn, env: &mut Envelope) -> Result<EnvelopeBody> {
        let deadline = self.timeout().map(|budget| Instant::now() + budget);
        let id = {
            let _writing = conn.writer.lock();
            let bytes = {
                let mut demux = conn.lock();
                env.req_id = demux.conn.next_req_id();
                let bytes = demux.conn.encode(env)?;
                demux.slots.insert(env.req_id, None);
                bytes
            };
            if let Err(e) = (&conn.stream).write_all(&bytes) {
                let mut demux = conn.lock();
                demux.slots.remove(&env.req_id);
                conn.fail(&mut demux, format!("send {}: {e}", self.endpoint));
                return Err(io_error(&self.endpoint, "send", e));
            }
            self.bytes_out.add(bytes.len() as u64);
            env.req_id
        };
        let mut demux = conn.lock();
        loop {
            if let Some(body) = demux.slots.get_mut(&id).and_then(Option::take) {
                demux.slots.remove(&id);
                return Ok(body);
            }
            if let Some(detail) = &demux.broken {
                let e = NamingError::service(format!("mux {detail}"));
                demux.slots.remove(&id);
                return Err(e);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                demux.slots.remove(&id);
                return Err(NamingError::Timeout {
                    detail: format!("receive {}: response deadline", self.endpoint),
                });
            }
            if demux.reading {
                let wait = left.unwrap_or(Duration::MAX);
                demux = conn
                    .ready
                    .wait_timeout(demux, wait)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                continue;
            }
            demux.reading = true;
            let mut buf = std::mem::take(&mut demux.buf);
            drop(demux);
            let read = (&conn.stream).read(&mut buf);
            demux = conn.lock();
            demux.reading = false;
            let gave_up = match read {
                Ok(n) if n > 0 => {
                    self.bytes_in.add(n as u64);
                    if let Err(e) = demux.deliver(&buf[..n]) {
                        conn.fail(&mut demux, format!("receive {}: {e}", self.endpoint));
                    }
                    None
                }
                // Our read timed out: give up this call only, and leave the
                // connection to the others.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    demux.slots.remove(&id);
                    Some(io_error(&self.endpoint, "receive", e))
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => None,
                closed => {
                    let why = closed.map_or_else(|e| e.to_string(), |_| "connection closed".into());
                    conn.fail(&mut demux, format!("receive {}: {why}", self.endpoint));
                    None
                }
            };
            demux.buf = buf;
            conn.ready.notify_all();
            if let Some(e) = gave_up {
                return Err(e);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetServer;
    use rndi_core::mem::MemContext;

    #[test]
    fn a_connection_idle_past_thirty_seconds_is_evicted_on_the_next_checkout() {
        let server = NetServer::bind(Arc::new(MemContext::new()), &Environment::new()).unwrap();
        let mut client =
            NetClient::new(server.local_addr().to_string(), &Environment::new()).unwrap();
        // The client's clock starts a minute back, so that a last-use stamp
        // can be set up to a minute in the past without a sleep.
        client.epoch = Instant::now().checked_sub(Duration::from_secs(60)).unwrap();
        let call = |client: &NetClient| client.scrape_health().unwrap();
        let pooled = |client: &NetClient| client.mux_pool.lock()[0].clone();
        call(&client);
        let first = pooled(&client);

        first.touch(client.now_ms() - (IDLE_EVICT_MS - 1_000));
        call(&client);
        assert!(Arc::ptr_eq(&pooled(&client), &first), "29 s idle: kept");
        assert_eq!(client.evicted_idle.get(), 0);

        first.touch(client.now_ms() - (IDLE_EVICT_MS + 1_000));
        call(&client);
        assert!(
            !Arc::ptr_eq(&pooled(&client), &first),
            "31 s idle: redialled"
        );
        assert_eq!(client.evicted_idle.get(), 1);
        assert_eq!(client.pooled(), 1);
        assert_eq!(client.pool_gauge.get(), 1);
        server.shutdown();
    }
}
