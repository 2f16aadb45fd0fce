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

/// Default capacity of the process-wide span ring buffer.
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

/// How many independently-locked segments a [`RingSink`] spreads its
/// spans over. Each producer thread sticks to one stripe, so client and
/// server threads recording into the process ring never contend on (or
/// bounce) a shared lock.
const RING_STRIPES: usize = 8;

/// Sequence numbers a stripe draws from the shared counter at a time.
/// One relaxed add per block instead of per push keeps the counter line
/// from bouncing between producer cores; the cost is that cross-stripe
/// ordering (and the eviction horizon) is only block-accurate.
const SEQ_BLOCK: u64 = 64;

/// One lock's worth of ring: a span queue (each span tagged with its
/// push sequence), this stripe's eviction count, and its unspent block
/// of sequence numbers. Everything lives inside the lock, so the
/// steady-state push touches no shared read-modify-write at all.
/// (Aligned so neighbouring stripes — each written by a different
/// producer thread — never share a cache line.)
#[repr(align(128))]
#[derive(Default)]
struct RingStripe {
    spans: VecDeque<(u64, SpanRecord)>,
    dropped: u64,
    seq_next: u64,
    seq_end: u64,
}

/// This thread's home stripe, assigned round-robin on first use.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    HOME.with(|cell| {
        let mut i = cell.get();
        if i == usize::MAX {
            i = NEXT.fetch_add(1, Ordering::Relaxed) % RING_STRIPES;
            cell.set(i);
        }
        i
    })
}

/// Bounded in-memory ring buffer: the default sink, always installed.
/// The ring keeps (approximately) the newest `capacity` spans process-wide:
/// every push takes a global sequence number and each stripe evicts its
/// spans once they age more than `capacity` sequence steps — so the
/// surviving set matches the old single-queue FIFO, while the hot path
/// stays one uncontended stripe lock plus one relaxed counter bump.
/// Evictions are counted, both locally ([`RingSink::dropped`]) and in
/// `rndi_obs_trace_dropped_total`, so operators can tell a dump is
/// partial. (A stripe whose thread goes quiet holds its last spans until
/// a capacity change sweeps them, so the live total may transiently
/// exceed `capacity` — still bounded, by `capacity` per stripe.)
pub struct RingSink {
    capacity: AtomicU64,
    /// Global push-sequence allocator (stripes draw [`SEQ_BLOCK`]-sized
    /// runs from it); also the eviction clock.
    seq: AtomicU64,
    /// Live spans across all stripes. At steady state each push evicts
    /// exactly one span, so this is not touched on the hot path.
    len_total: AtomicU64,
    /// Drops already forwarded to the global counter (see [`Self::dropped`]).
    synced: AtomicU64,
    stripes: [Mutex<RingStripe>; RING_STRIPES],
}

/// Shared counter handle for ring evictions (all `RingSink`s feed it).
/// Cached so the per-drop cost stays two relaxed adds, not a registry
/// lock; after a `metrics::reset()` it keeps counting into the detached
/// instrument, like every other cached handle.
fn dropped_total() -> &'static Arc<Counter> {
    static DROPPED: OnceLock<Arc<Counter>> = OnceLock::new();
    DROPPED.get_or_init(|| metrics::counter(names::TRACE_DROPPED, &[]))
}

impl RingSink {
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: AtomicU64::new(capacity.max(1) as u64),
            seq: AtomicU64::new(0),
            len_total: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            stripes: std::array::from_fn(|_| Mutex::new(RingStripe::default())),
        }
    }

    /// Drop every span older than `capacity` sequence steps from `stripe`.
    /// Returns how many it evicted (already added to the stripe's count).
    fn age_out(stripe: &mut RingStripe, next_seq: u64, cap: u64) -> u64 {
        let mut evicted = 0u64;
        while let Some(&(s, _)) = stripe.spans.front() {
            if s < next_seq.saturating_sub(cap) {
                stripe.spans.pop_front();
                evicted += 1;
            } else {
                break;
            }
        }
        stripe.dropped += evicted;
        evicted
    }

    pub fn set_capacity(&self, capacity: usize) {
        let cap = capacity.max(1) as u64;
        self.capacity.store(cap, Ordering::Relaxed);
        // Sweep every stripe against the new horizon — this is also what
        // reclaims spans stranded in stripes whose threads went quiet.
        // The horizon is the highest sequence actually *used*, not the
        // shared counter, which runs up to a block ahead per stripe.
        let next_seq = self
            .stripes
            .iter()
            .map(|s| s.lock().seq_next)
            .max()
            .unwrap_or(0);
        let mut evicted = 0u64;
        for stripe in &self.stripes {
            evicted += Self::age_out(&mut stripe.lock(), next_seq, cap);
        }
        if evicted > 0 {
            self.len_total.fetch_sub(evicted, Ordering::Relaxed);
        }
        // Surface the trims in the exposition counter right away.
        self.dropped();
    }

    /// Spans evicted from this ring before anyone read them. Also
    /// forwards any not-yet-reported drops to the global
    /// `rndi_obs_trace_dropped_total` counter — callers (health, flight
    /// dumps, scrapes) read this exactly where the figure is published.
    pub fn dropped(&self) -> u64 {
        let total: u64 = self.stripes.iter().map(|s| s.lock().dropped).sum();
        let prev = self.synced.swap(total, Ordering::Relaxed);
        if total > prev {
            dropped_total().add(total - prev);
        }
        total
    }

    pub fn len(&self) -> usize {
        self.len_total.load(Ordering::Relaxed) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        for stripe in &self.stripes {
            let mut stripe = stripe.lock();
            let n = stripe.spans.len();
            stripe.spans.clear();
            self.len_total.fetch_sub(n as u64, Ordering::Relaxed);
        }
    }

    /// All buffered spans, oldest first (merged across stripes by push
    /// sequence).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut tagged = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            tagged.extend(stripe.lock().spans.iter().cloned());
        }
        tagged.sort_by_key(|&(s, _)| s);
        tagged.into_iter().map(|(_, span)| span).collect()
    }

    /// Every buffered span of one trace, oldest first.
    pub fn trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut tagged = Vec::new();
        for stripe in &self.stripes {
            tagged.extend(
                stripe
                    .lock()
                    .spans
                    .iter()
                    .filter(|(_, s)| s.trace_id == trace_id)
                    .cloned(),
            );
        }
        tagged.sort_by_key(|&(s, _)| s);
        tagged.into_iter().map(|(_, span)| span).collect()
    }

    /// The `n` slowest root spans (no parent), slowest first — the entry
    /// point for "top-N slowest traces" reports.
    pub fn slowest_roots(&self, n: usize) -> Vec<SpanRecord> {
        let mut roots = Vec::new();
        for stripe in &self.stripes {
            roots.extend(
                stripe
                    .lock()
                    .spans
                    .iter()
                    .filter(|(_, s)| s.parent_span == 0)
                    .map(|(_, s)| s.clone()),
            );
        }
        roots.sort_by_key(|s| std::cmp::Reverse(s.duration_ns));
        roots.truncate(n);
        roots
    }
}

impl RingSink {
    /// [`TraceSink::record`] by value: the common single-sink path moves
    /// the span straight into the ring instead of cloning it.
    ///
    /// The hot path is one uncontended stripe lock (sequence numbers come
    /// from the stripe's pre-drawn block); at steady state the push ages
    /// out exactly one span of its own stripe, so it writes no shared
    /// cache line at all.
    pub fn push(&self, span: SpanRecord) {
        let cap = self.capacity.load(Ordering::Relaxed);
        let mut stripe = self.stripes[stripe_index()].lock();
        if stripe.seq_next == stripe.seq_end {
            let base = self.seq.fetch_add(SEQ_BLOCK, Ordering::Relaxed);
            stripe.seq_next = base;
            stripe.seq_end = base + SEQ_BLOCK;
        }
        let seq = stripe.seq_next;
        stripe.seq_next += 1;
        stripe.spans.push_back((seq, span));
        let evicted = Self::age_out(&mut stripe, seq + 1, cap);
        drop(stripe);
        // Net growth is usually 1 (warm-up) or 0 (steady state: one in,
        // one out); only the 0 case skips the shared counter entirely.
        if evicted != 1 {
            self.len_total
                .fetch_add(1u64.wrapping_sub(evicted), Ordering::Relaxed);
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
        ring.set_capacity(1);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 3, "capacity trims count as drops");
        ring.clear();
        assert!(ring.is_empty());
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
