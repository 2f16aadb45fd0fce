//! The shard: one event loop's pass as a sans-IO state machine.
//!
//! A [`Shard`] owns the protocol and admission state of the connections
//! its server thread hands it, by id, and everything that happens between
//! a byte read and a byte written. [`received`](Shard::received) decodes
//! what a connection sent and offers each call to the shard's
//! [`Admission`] (a shed is answered at once); pings, admin scrapes,
//! gossip and malformed frames are answered in place. [`run`](Shard::run)
//! then runs the queue to empty against the backend. The answers wait in
//! [`outgoing`](Shard::outgoing) until the caller writes them and reports
//! how many bytes left with [`consumed`](Shard::consumed).
//!
//! Every entry point takes the caller's instant; `run` takes a clock it
//! reads after each backend call. The module holds no socket, thread or
//! clock read, so a simulated clock drives it exactly as
//! [`NetServer`](crate::NetServer)'s shard threads do
//! (`tests/admission_model.rs`).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::spi::ProviderBackend;
use rndi_obs::metrics::{names, Counter, Gauge, Histogram, Registry};
use rndi_obs::{HealthSummary, SpanOutcome, SpanRecord, TraceCtx};

use crate::admit::{Admission, Next, Quota, Served};
use crate::conn::{InboundMsg, ResponseBody, ServerConn};
use crate::proto::{self, AdminReply, AdminRequest};

/// Serves `Gossip` envelopes: takes a membership plane's payload and
/// returns the bytes of its answer. The transport neither reads nor checks
/// them. Runs inline on the shard event loop, so implementations must be
/// quick and never block on the network.
pub trait GossipHandler: Send + Sync {
    fn handle(&self, payload: &[u8]) -> Vec<u8>;
}

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
}

/// What every shard of one server shares: the backend, the configuration,
/// the instruments and the gossip handler.
pub struct Shared {
    backend: Arc<dyn ProviderBackend>,
    pub(crate) label: Arc<str>,
    pub(crate) config: ServerConfig,
    pub(crate) registry: Arc<Registry>,
    started: Instant,
    /// Connections the server holds open, and their gauge; the server
    /// counts them.
    pub(crate) active: AtomicUsize,
    pub(crate) active_gauge: Arc<Gauge>,
    /// Accepted sockets not yet adopted by a shard; the server counts them.
    pub(crate) backlog: AtomicUsize,
    /// Per-shard `[queue depth, admission bound (0 = unbounded)]` gauges:
    /// each shard writes its own, the health probe sums.
    admission: Vec<[Arc<Gauge>; 2]>,
    /// Shed counters by reason, indexed by [`ShedReason`](crate::admit::ShedReason).
    shed: [Arc<Counter>; 3],
    /// Per-op-kind request instruments, resolved once — a registry lookup
    /// allocates label strings under a global lock, far too expensive on
    /// the per-request path.
    req_instruments: Mutex<HashMap<String, ReqInstruments>>,
    /// The membership plane's handler; without one, gossip is refused.
    pub(crate) gossip: Mutex<Option<Arc<dyn GossipHandler>>>,
}

#[derive(Clone)]
struct ReqInstruments {
    ok: Arc<Counter>,
    err: Arc<Counter>,
    duration: Arc<Histogram>,
}

impl Shared {
    /// The state `shards` shards (and a gossip shard, index `shards`) of
    /// one server share, started at `now`; instruments land in `registry`.
    pub fn new(
        backend: Arc<dyn ProviderBackend>,
        config: ServerConfig,
        registry: Arc<Registry>,
        shards: usize,
        now: Instant,
    ) -> Arc<Shared> {
        let label = format!("net:{}", backend.provider_id());
        let shed = ["queue", "rate", "deadline"].map(|reason| {
            registry.counter(names::NET_SHED, &[("server", &label), ("reason", reason)])
        });
        let admission = (0..=shards)
            .map(|shard| {
                let shard = shard.to_string();
                let labels: &[(&str, &str)] = &[("server", &label), ("shard", &shard)];
                [
                    registry.gauge(names::NET_QUEUE_DEPTH, labels),
                    registry.gauge(names::NET_CONCURRENCY_LIMIT, labels),
                ]
            })
            .collect();
        let active_gauge = registry.gauge(names::NET_ACTIVE_CONNS, &[("server", &label)]);
        Arc::new(Shared {
            backend,
            label: label.into(),
            config,
            registry,
            started: now,
            active: AtomicUsize::new(0),
            active_gauge,
            backlog: AtomicUsize::new(0),
            admission,
            shed,
            req_instruments: Mutex::new(HashMap::new()),
            gossip: Mutex::new(None),
        })
    }

    pub(crate) fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
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

    /// The health summary at `now`: everything reads atomics or
    /// short-held locks, so it is served inline on an event loop.
    pub fn health(&self, now: Instant) -> HealthSummary {
        let (mut ok, mut err) = (0u64, 0u64);
        for inst in self.req_instruments.lock().values() {
            ok += inst.ok.get();
            err += inst.err.get();
        }
        let ring = rndi_obs::trace::ring();
        HealthSummary {
            instance: self.label.to_string(),
            uptime_ms: now.saturating_duration_since(self.started).as_millis() as u64,
            active_conns: self.active.load(Ordering::Relaxed) as u64,
            max_conns: self.config.max_conns as u64,
            inbox_depth: self.backlog.load(Ordering::Relaxed) as u64,
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

/// One connection's state on a shard: its protocol machine and rate limit.
pub struct Conn {
    machine: ServerConn,
    quota: Quota,
    /// Has carried a `Gossip` request a membership plane answered.
    gossip: bool,
    /// Broke the protocol, or an answer to it did not encode.
    broken: bool,
}

/// One call admission holds: where its answer goes, and the call.
struct Call {
    conn: u64,
    req_id: u64,
    op: Box<proto::WireOp>,
    trace: Option<TraceCtx>,
}

/// One event loop's connections, admission queue and instruments.
pub struct Shard {
    shared: Arc<Shared>,
    conns: HashMap<u64, Conn>,
    admission: Admission<Call>,
    depth_gauge: Arc<Gauge>,
    bound_gauge: Arc<Gauge>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
}

impl Shard {
    /// Shard `index` of the server `shared` describes.
    pub fn new(shared: Arc<Shared>, index: usize) -> Shard {
        let config = &shared.config;
        let admission = Admission::new(config.queue_depth, config.adaptive, config.deadline_ms);
        let [depth_gauge, bound_gauge] = shared.admission[index].clone();
        bound_gauge.set(admission.bound() as i64);
        Shard {
            bytes_in: shared.counter(names::NET_BYTES, &[("dir", "in")]),
            bytes_out: shared.counter(names::NET_BYTES, &[("dir", "out")]),
            shared,
            conns: HashMap::new(),
            admission,
            depth_gauge,
            bound_gauge,
        }
    }

    /// Connection `id`: new at `now`, or `moved` with the state another
    /// shard gave up in [`closed`](Shard::closed).
    pub fn open(&mut self, id: u64, moved: Option<Conn>, now: Instant) {
        let config = &self.shared.config;
        let conn = moved.unwrap_or_else(|| Conn {
            machine: ServerConn::new(),
            quota: Quota::new(config.rate_ops, config.rate_burst, now),
            gossip: false,
            broken: false,
        });
        self.conns.insert(id, conn);
    }

    /// Bytes connection `id` sent, read at `now`: one read is one arrival,
    /// so its calls are offered at one instant. An `Err` means the
    /// connection broke the protocol and is closed once this pass has
    /// answered what it read.
    pub fn received(&mut self, id: u64, bytes: &[u8], now: Instant) -> Result<()> {
        self.bytes_in.add(bytes.len() as u64);
        let Some(conn) = self.conns.get_mut(&id) else {
            return Err(NamingError::service("no such connection"));
        };
        let routed = conn.machine.receive(bytes).and_then(|inbound| {
            inbound
                .into_iter()
                .try_for_each(|req| respond(&self.shared, &mut self.admission, id, conn, req, now))
        });
        conn.broken |= routed.is_err();
        routed
    }

    /// Run the queue to empty: the instant one call finishes, read from
    /// `clock` after its backend call, is the instant admission decides the
    /// next at. Answers wait in [`outgoing`](Shard::outgoing). Returns
    /// whether there was anything to run.
    pub fn run(&mut self, clock: &mut impl FnMut() -> Instant) -> bool {
        if self.admission.depth() == 0 {
            return false;
        }
        self.depth_gauge.set(self.admission.depth() as i64);
        let mut now = clock();
        while let Some(next) = self.admission.next(now) {
            let (call, body) = match next {
                Next::Run(pending) => {
                    let (body, end) = handle_call(
                        &self.shared,
                        &pending.call,
                        pending.admitted,
                        pending.budget,
                        clock,
                    );
                    let served = match &body {
                        ResponseBody::Ok(_) => Served::InBudget,
                        ResponseBody::Err(proto::WireError::Timeout { .. }) => Served::Late,
                        _ => Served::Failed,
                    };
                    self.admission
                        .complete(end.saturating_duration_since(now), served);
                    now = end;
                    (pending.call, body)
                }
                Next::Shed(call, shed) => {
                    self.shared.shed[shed.reason as usize].inc();
                    (call, ResponseBody::Err(proto::encode_error(&shed.error())))
                }
            };
            if let Some(conn) = self.conns.get_mut(&call.conn) {
                conn.broken |= conn.machine.push_response(call.req_id, body).is_err();
            }
        }
        self.depth_gauge.set(0);
        self.bound_gauge.set(self.admission.bound() as i64);
        true
    }

    /// Bytes waiting to be written to connection `id`.
    pub fn outgoing(&self, id: u64) -> &[u8] {
        self.conns
            .get(&id)
            .map_or(&[], |conn| conn.machine.pending_out())
    }

    /// `n` bytes of [`outgoing`](Shard::outgoing) were written.
    pub fn consumed(&mut self, id: u64, n: usize) {
        self.bytes_out.add(n as u64);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.machine.consume_out(n);
        }
    }

    /// Connection `id` has carried gossip: the server moves it to the
    /// gossip shard, so a naming call that waits on the group never blocks
    /// the frames it waits for.
    pub fn spoke_gossip(&self, id: u64) -> bool {
        self.conns.get(&id).is_some_and(|conn| conn.gossip)
    }

    /// Connection `id` broke the protocol: close it once it is flushed.
    pub fn broken(&self, id: u64) -> bool {
        self.conns.get(&id).is_some_and(|conn| conn.broken)
    }

    /// Forget connection `id`; its state, for a shard to
    /// [`open`](Shard::open).
    pub fn closed(&mut self, id: u64) -> Option<Conn> {
        self.conns.remove(&id)
    }
}

/// Route one decoded request: pings, admin scrapes, gossip and malformed
/// frames are answered in place (bounded work); calls are offered to
/// admission at `now` — shed at once, or queued for [`Shard::run`].
///
/// Shed responses can overtake queued ones from the same socket; that is
/// fine because responses match by request ID.
fn respond(
    shared: &Shared,
    admission: &mut Admission<Call>,
    id: u64,
    conn: &mut Conn,
    req: crate::conn::Inbound,
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
                conn: id,
                req_id: req.req_id,
                op,
                trace,
            };
            match admission.offer(&mut conn.quota, call, deadline_ms, now) {
                Ok(()) => return Ok(()),
                Err(shed) => {
                    shared.shed[shed.reason as usize].inc();
                    ResponseBody::Err(proto::encode_error(&shed.error()))
                }
            }
        }
        InboundMsg::Admin(admin) => ResponseBody::Admin(handle_admin(shared, admin, now)),
        InboundMsg::Gossip(payload) => {
            let handler = shared.gossip.lock().clone();
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

/// Serve a telemetry request inline. Every variant is bounded work: a
/// registry snapshot, a ring scan, or an atomic sweep.
fn handle_admin(shared: &Shared, req: AdminRequest, now: Instant) -> AdminReply {
    match req {
        AdminRequest::Metrics => AdminReply::Metrics(shared.registry.snapshot()),
        AdminRequest::TraceDump { trace_id, slowest } => {
            let ring = rndi_obs::trace::ring();
            let spans = if trace_id != 0 {
                ring.trace(trace_id)
            } else if slowest != 0 {
                // Full traces of the N slowest roots, deduped across
                // traces that share spans (they shouldn't, but the ring
                // is best-effort evidence, not a ledger).
                let mut seen = HashSet::new();
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
        AdminRequest::Health => AdminReply::Health(shared.health(now)),
    }
}

/// Execute one call admission dispatched, under a "server" span nested
/// under the client's. Its budget ran from `admitted`, so queue wait shows
/// in the duration histogram, and a call that finishes past its budget
/// answers `Timeout` (it may have landed). Returns the answer and the
/// instant the call finished, read from `clock`.
fn handle_call(
    shared: &Shared,
    call: &Call,
    admitted: Instant,
    budget: Option<Duration>,
    clock: &mut impl FnMut() -> Instant,
) -> (ResponseBody, Instant) {
    let instruments = shared.req_instruments(&call.op.kind);
    let server_ctx = call
        .trace
        .map_or_else(TraceCtx::root, |parent| parent.child());
    let executed = proto::decode_op(&call.op).map(|mut op| {
        op.set_trace_ctx(&server_ctx);
        (op.kind, shared.backend.execute(&op))
    });
    let end = clock();
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
        let span = SpanRecord::new(
            &server_ctx,
            "server",
            shared.label.clone(),
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
