//! Trace contexts, span records, and span sinks.
//!
//! A trace is a tree of spans sharing one `trace_id`. The root span is
//! minted wherever an operation first enters instrumented code (pipeline
//! entry, federation driver); every layer below derives a child via
//! [`TraceCtx::child`], so parent links reconstruct the tree even when
//! spans arrive out of order from worker threads or remote servers.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use crate::metrics::{self, names, Counter, Histogram};

/// Capacity of the process-wide span ring buffer.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

// ----------------------------------------------------------- identity --

/// splitmix64: cheap, well-distributed id stream from a counter.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn next_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    // Threads draw counter blocks, not single values: span ids are minted
    // on both sides of every wire op, and a shared fetch_add per id would
    // bounce the counter line between client and server cores.
    const BLOCK: u64 = 1024;
    thread_local! {
        static LOCAL: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    }
    let seed = *SEED.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed)
    });
    let n = LOCAL.with(|cell| {
        let (next, end) = cell.get();
        if next == end {
            let base = COUNTER.fetch_add(BLOCK, Ordering::Relaxed);
            cell.set((base + 1, base + BLOCK));
            base
        } else {
            cell.set((next + 1, end));
            next
        }
    });
    // Never 0: a zero parent id means "no parent".
    mix(seed ^ n) | 1
}

/// The propagated trace context: where in which trace the current
/// operation is executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    pub trace_id: u64,
    pub span_id: u64,
    /// `0` when this is the root span of its trace.
    pub parent_span: u64,
    /// Hop count from the root (federation depth, layer nesting).
    pub depth: u32,
}

impl TraceCtx {
    /// Mint a fresh root context (new trace).
    pub fn root() -> Self {
        TraceCtx {
            trace_id: next_id(),
            span_id: next_id(),
            parent_span: 0,
            depth: 0,
        }
    }

    /// A child context within the same trace.
    pub fn child(&self) -> Self {
        TraceCtx {
            trace_id: self.trace_id,
            span_id: next_id(),
            parent_span: self.span_id,
            depth: self.depth + 1,
        }
    }
}

/// An interior-mutable slot for a [`TraceCtx`] annotation.
///
/// Instrumented layers re-annotate the operation they pass down at every
/// hop; a cell of relaxed atomics lets a layer write the child context
/// through a shared reference — and restore the parent on exit — instead
/// of cloning the whole operation per layer. The four fields are *not*
/// written as one atomic unit: annotation flows down a single call chain,
/// and every concurrent scatter path (federation mounts, shard legs)
/// clones the op before re-annotating its own copy.
#[derive(Default)]
pub struct TraceCell {
    /// `0` = unannotated ([`TraceCtx`] ids are never zero).
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_span: AtomicU64,
    depth: AtomicU64,
}

impl TraceCell {
    pub const fn empty() -> Self {
        TraceCell {
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_span: AtomicU64::new(0),
            depth: AtomicU64::new(0),
        }
    }

    pub fn get(&self) -> Option<TraceCtx> {
        let trace_id = self.trace_id.load(Ordering::Relaxed);
        if trace_id == 0 {
            return None;
        }
        Some(TraceCtx {
            trace_id,
            span_id: self.span_id.load(Ordering::Relaxed),
            parent_span: self.parent_span.load(Ordering::Relaxed),
            depth: self.depth.load(Ordering::Relaxed) as u32,
        })
    }

    pub fn set(&self, ctx: &TraceCtx) {
        self.span_id.store(ctx.span_id, Ordering::Relaxed);
        self.parent_span.store(ctx.parent_span, Ordering::Relaxed);
        self.depth.store(ctx.depth as u64, Ordering::Relaxed);
        self.trace_id.store(ctx.trace_id, Ordering::Relaxed);
    }

    pub fn clear(&self) {
        self.trace_id.store(0, Ordering::Relaxed);
    }

    /// Put the cell back to a previously [`TraceCell::get`]-observed state.
    pub fn restore(&self, saved: Option<TraceCtx>) {
        match saved {
            Some(ctx) => self.set(&ctx),
            None => self.clear(),
        }
    }
}

impl Clone for TraceCell {
    fn clone(&self) -> Self {
        let cell = TraceCell::empty();
        if let Some(ctx) = self.get() {
            cell.set(&ctx);
        }
        cell
    }
}

impl From<Option<TraceCtx>> for TraceCell {
    fn from(ctx: Option<TraceCtx>) -> Self {
        let cell = TraceCell::empty();
        if let Some(ctx) = &ctx {
            cell.set(ctx);
        }
        cell
    }
}

impl fmt::Debug for TraceCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceCell({:?})", self.get())
    }
}

// -------------------------------------------------------------- spans --

/// How a span's operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    Ok,
    Err,
    /// A federation continuation — control flow, not a failure.
    Continue,
}

impl Serialize for SpanOutcome {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.label().to_string())
    }
}

impl Deserialize for SpanOutcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("ok") => Ok(SpanOutcome::Ok),
            Some("err") => Ok(SpanOutcome::Err),
            Some("continue") => Ok(SpanOutcome::Continue),
            other => Err(serde::Error::custom(format!(
                "expected span outcome, got {other:?}"
            ))),
        }
    }
}

impl SpanOutcome {
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::Err => "err",
            SpanOutcome::Continue => "continue",
        }
    }
}

/// One finished span.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_span: u64,
    pub depth: u32,
    /// Which layer produced the span ("pipeline", "backend", "federation",
    /// "server", "client"). `Cow` because every producer passes a static
    /// label — span construction on the hot path must not allocate.
    pub layer: Cow<'static, str>,
    /// Provider / server instance label. `Arc` so producers that cache
    /// their label record it with a refcount bump, not a heap copy.
    pub provider: Arc<str>,
    /// Operation kind label ("lookup", "search", …); static, like `layer`.
    pub op: Cow<'static, str>,
    pub outcome: SpanOutcome,
    pub duration_ns: u64,
}

impl SpanRecord {
    /// Build a record from the context the span executed under.
    pub fn new(
        ctx: &TraceCtx,
        layer: impl Into<Cow<'static, str>>,
        provider: impl Into<Arc<str>>,
        op: impl Into<Cow<'static, str>>,
        outcome: SpanOutcome,
        duration: std::time::Duration,
    ) -> Self {
        SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span: ctx.parent_span,
            depth: ctx.depth,
            layer: layer.into(),
            provider: provider.into(),
            op: op.into(),
            outcome,
            duration_ns: duration.as_nanos().min(u64::MAX as u128) as u64,
        }
    }
}

// -------------------------------------------------------------- sinks --

/// Receives finished spans. Implementations must tolerate concurrent
/// callers and must never panic (sinks run inside every pipeline op).
pub trait TraceSink: Send + Sync {
    fn record(&self, span: &SpanRecord);
}

/// Bounded in-memory ring buffer: the default sink, always installed.
///
/// One queue behind one lock, holding the newest `capacity` spans in the
/// order they were recorded. A push into a full ring evicts the oldest span
/// first, so the queue never grows past `capacity`; each eviction is
/// counted, in [`RingSink::dropped`] and in `rndi_obs_trace_dropped_total`,
/// so operators can tell a dump is partial.
pub struct RingSink {
    capacity: usize,
    ring: Mutex<Ring>,
    /// `rndi_obs_trace_dropped_total`, which every ring feeds. Resolved
    /// when the ring is made, so the series exists from then on; after a
    /// `metrics::reset()` it keeps counting into the detached instrument,
    /// like every other cached handle.
    dropped_total: Arc<Counter>,
}

/// What the lock guards: the spans, and how many were evicted.
#[derive(Default)]
struct Ring {
    spans: VecDeque<SpanRecord>,
    dropped: u64,
}

impl RingSink {
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
            dropped_total: metrics::counter(names::TRACE_DROPPED, &[]),
        }
    }

    /// Spans evicted from this ring before anyone read them.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    pub fn len(&self) -> usize {
        self.ring.lock().spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.ring.lock().spans.clear();
    }

    /// All buffered spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.ring.lock().spans.iter().cloned().collect()
    }

    /// Every buffered span of one trace, oldest first.
    pub fn trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let ring = self.ring.lock();
        ring.spans
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// The `n` slowest root spans (no parent), slowest first — the entry
    /// point for "top-N slowest traces" reports.
    pub fn slowest_roots(&self, n: usize) -> Vec<SpanRecord> {
        let mut roots: Vec<SpanRecord> = {
            let ring = self.ring.lock();
            let roots = ring.spans.iter().filter(|s| s.parent_span == 0);
            roots.cloned().collect()
        };
        roots.sort_by_key(|s| std::cmp::Reverse(s.duration_ns));
        roots.truncate(n);
        roots
    }

    /// [`TraceSink::record`] by value: the common single-sink path moves
    /// the span straight into the ring instead of cloning it.
    pub fn push(&self, span: SpanRecord) {
        let mut ring = self.ring.lock();
        let evicted = if ring.spans.len() == self.capacity {
            ring.dropped += 1;
            ring.spans.pop_front()
        } else {
            None
        };
        ring.spans.push_back(span);
        // The evicted span is freed, and counted, after the lock is released.
        drop(ring);
        if evicted.is_some() {
            self.dropped_total.inc();
        }
    }
}

impl TraceSink for RingSink {
    fn record(&self, span: &SpanRecord) {
        self.push(span.clone());
    }
}

/// Appends one JSON object per span to a file (the `rndi.obs.trace-file`
/// knob). Tracing must never fail an op, so a failed write is counted in
/// [`names::SINK_ERRORS`] rather than returned.
struct JsonlSink {
    file: Mutex<std::fs::File>,
}

/// The sink-error counter for `sink` (`flight` or `trace_file`).
pub(crate) fn sink_errors(sink: &str) -> Arc<Counter> {
    metrics::counter(names::SINK_ERRORS, &[("sink", sink)])
}

impl JsonlSink {
    fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlSink {
            file: Mutex::new(file),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, span: &SpanRecord) {
        if let Ok(line) = serde_json::to_string(span) {
            let mut file = self.file.lock();
            if writeln!(file, "{line}").is_err() {
                sink_errors("trace_file").inc();
            }
        }
    }
}

// ------------------------------------------------------ global wiring --

struct Sinks {
    extra: Vec<Arc<dyn TraceSink>>,
    /// Paths already backed by a JSONL sink (idempotent installs).
    jsonl_paths: Vec<String>,
}

fn sinks() -> &'static RwLock<Sinks> {
    static SINKS: OnceLock<RwLock<Sinks>> = OnceLock::new();
    SINKS.get_or_init(|| {
        RwLock::new(Sinks {
            extra: Vec::new(),
            jsonl_paths: Vec::new(),
        })
    })
}

/// How many extra sinks are installed — checked with one relaxed load per
/// span so the common ring-only configuration never touches the lock.
static EXTRA_SINKS: AtomicUsize = AtomicUsize::new(0);

/// The always-installed process-wide ring buffer.
pub fn ring() -> &'static RingSink {
    static RING: OnceLock<RingSink> = OnceLock::new();
    RING.get_or_init(|| RingSink::new(DEFAULT_RING_CAPACITY))
}

/// Fan one finished span out to the ring and every installed sink.
pub fn record(span: SpanRecord) {
    if EXTRA_SINKS.load(Ordering::Relaxed) == 0 {
        return ring().push(span);
    }
    for sink in sinks().read().extra.iter() {
        sink.record(&span);
    }
    ring().push(span);
}

/// What a server keeps per operation it serves: the
/// `rndi_server_ops_total` / `rndi_server_duration_ns` series of
/// `(server, op)` and the labels of the op's `server`-layer span. The series
/// are looked up in the process-wide registry once, here, so counting an
/// operation afterwards is two atomic steps and no label strings.
pub struct ServerOp {
    ops: Arc<Counter>,
    duration: Arc<Histogram>,
    server: Arc<str>,
    op: &'static str,
}

impl ServerOp {
    pub fn new(server: impl Into<Arc<str>>, op: &'static str) -> Self {
        let server = server.into();
        let labels = [("server", &*server), ("op", op)];
        ServerOp {
            ops: metrics::counter(names::SERVER_OPS, &labels),
            duration: metrics::histogram(names::SERVER_DURATION, &labels),
            server,
            op,
        }
    }

    /// Count and time one finished operation; when the caller shipped a
    /// trace context, also record a `server`-layer span as its child, which
    /// links the operation into the caller's trace.
    pub fn observe(&self, took: std::time::Duration, ok: bool, caller: Option<&TraceCtx>) {
        self.ops.inc();
        self.duration.record_duration(took);
        if let Some(ctx) = caller {
            record(SpanRecord::new(
                &ctx.child(),
                "server",
                self.server.clone(),
                self.op,
                if ok {
                    SpanOutcome::Ok
                } else {
                    SpanOutcome::Err
                },
                took,
            ));
        }
    }
}

/// Install a JSONL file sink for `path`, once per path per process. A
/// file that cannot be opened installs nothing and is counted in
/// [`names::SINK_ERRORS`] (`sink="trace_file"`), once per attempt.
pub fn install_jsonl(path: &str) {
    if sinks().read().jsonl_paths.iter().any(|p| p == path) {
        return;
    }
    let mut guard = sinks().write();
    if guard.jsonl_paths.iter().any(|p| p == path) {
        return;
    }
    match JsonlSink::create(path) {
        Ok(sink) => {
            guard.extra.push(Arc::new(sink));
            guard.jsonl_paths.push(path.to_string());
            EXTRA_SINKS.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => sink_errors("trace_file").inc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn child_links_to_its_parent_within_the_trace() {
        let root = TraceCtx::root();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span, root.span_id);
        assert_eq!(child.depth, 1);
        assert_ne!(child.span_id, root.span_id);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id}");
        }
    }

    fn span(trace: &TraceCtx, ns: u64) -> SpanRecord {
        SpanRecord::new(
            trace,
            "pipeline",
            "p",
            "lookup",
            SpanOutcome::Ok,
            Duration::from_nanos(ns),
        )
    }

    #[test]
    fn ring_bounds_and_queries() {
        let ring = RingSink::new(3);
        let a = TraceCtx::root();
        let b = TraceCtx::root();
        ring.record(&span(&a, 5));
        ring.record(&span(&b, 10));
        ring.record(&span(&a.child(), 1));
        ring.record(&span(&b, 20));
        assert_eq!(ring.len(), 3, "oldest span evicted at capacity");
        assert_eq!(ring.dropped(), 1, "the eviction was counted");
        assert_eq!(ring.trace(b.trace_id).len(), 2);
        let slow = ring.slowest_roots(10);
        assert!(slow.iter().all(|s| s.parent_span == 0));
        assert_eq!(slow.first().map(|s| s.duration_ns), Some(20));
        ring.clear();
        assert!(ring.is_empty());
    }

    /// Eight producer threads in turn, each filling the ring and exiting:
    /// the ring still holds exactly `capacity` spans — the newest, in the
    /// order they were recorded — and counts every one it evicted.
    #[test]
    fn the_ring_holds_its_capacity_when_threads_take_turns() {
        const THREADS: u64 = 8;
        let cap = DEFAULT_RING_CAPACITY;
        let ring = Arc::new(RingSink::new(cap));
        let dropped_before = metrics::counter_total(names::TRACE_DROPPED);
        let root = TraceCtx::root();
        for t in 0..THREADS {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 0..cap as u64 {
                    ring.record(&span(&root, t * cap as u64 + i));
                }
            })
            .join()
            .unwrap();
        }
        let held = ring.snapshot();
        assert_eq!(ring.len(), cap);
        assert_eq!(held.len(), cap);
        let newest: Vec<u64> = ((THREADS - 1) * cap as u64..THREADS * cap as u64).collect();
        let got: Vec<u64> = held.iter().map(|s| s.duration_ns).collect();
        assert!(got == newest, "not the newest {cap} spans in record order");
        assert_eq!(ring.dropped(), (THREADS - 1) * cap as u64);
        assert!(
            metrics::counter_total(names::TRACE_DROPPED) - dropped_before
                >= (THREADS - 1) * cap as u64,
            "every eviction reached rndi_obs_trace_dropped_total"
        );
    }

    #[test]
    fn span_record_roundtrips_through_json() {
        let rec = span(&TraceCtx::root().child(), 123);
        let text = serde_json::to_string(&rec).unwrap();
        let back: SpanRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(rec, back);
        assert!(serde_json::from_str::<SpanRecord>("{\"outcome\":\"nope\"}").is_err());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!("obs-test-{}.jsonl", next_id()));
        let sink = JsonlSink::create(path.to_str().unwrap()).unwrap();
        sink.record(&span(&TraceCtx::root(), 7));
        let text = std::fs::read_to_string(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(v.get("duration_ns").and_then(|n| n.as_u64()), Some(7));
        assert_eq!(v.get("outcome").and_then(|o| o.as_str()), Some("ok"));
        let _ = std::fs::remove_file(&path);
    }
}
