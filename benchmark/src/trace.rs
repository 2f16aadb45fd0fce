//! Spans recorded by the benchmark around the calls it makes into each
//! layer.
//!
//! Nothing here lives inside the product crates: the client loop records
//! the root span of every operation, and [`Traced`] — a `ProviderBackend`
//! the benchmark slips around a pipeline or a provider when it assembles a
//! traced world — records the spans below it. Spans stay in memory and are
//! written out when the run ends.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rndi_core::error::Result;
use rndi_core::event::EventHub;
use rndi_core::name::CompoundSyntax;
use rndi_core::op::{NamingOp, OpOutcome};
use rndi_core::spi::{ProviderBackend, WireFormat};

use crate::measure::{median, Kind};

/// Name of the root span every operation starts with.
pub const CLIENT: &str = "client";

/// Spans kept per run; later operations still run, unrecorded.
const SPAN_CAP: usize = 200_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Shared by every span of one operation.
    pub op: u64,
    pub name: &'static str,
    /// Name of the span that caused this one; empty for the root.
    pub parent: &'static str,
    pub kind: Option<Kind>,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Operations the client has issued.
static CLIENT_SEQ: AtomicU64 = AtomicU64::new(0);
/// Operations the server side has started, in issue order.
static SERVER_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The operation this thread is working for.
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

fn sink() -> &'static Mutex<Vec<Span>> {
    static SINK: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    t.duration_since(epoch()).as_nanos() as u64
}

/// Record from here on. Call with nothing in flight: the client and the
/// server side number operations independently and must stay in step.
pub fn resume() {
    epoch();
    sink().lock().expect("span sink poisoned").reserve(SPAN_CAP);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording; [`resume`] carries on with the next operation number.
pub fn pause() {
    ENABLED.store(false, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn push(span: Span) {
    let mut spans = sink().lock().expect("span sink poisoned");
    if spans.len() < SPAN_CAP {
        spans.push(span);
    }
}

fn begin_op(op: u64) {
    CURRENT_OP.with(|c| c.set(op));
}

/// Number the client's next operation and mark the calling thread as
/// working for it (in-process wrappers below read it back).
pub fn next_op() -> u64 {
    if !enabled() {
        return 0;
    }
    let op = CLIENT_SEQ.fetch_add(1, Ordering::Relaxed);
    begin_op(op);
    op
}

/// Record the root span of operation `op`.
pub fn client_span(op: u64, kind: Kind, start: Instant, end: Instant) {
    if enabled() {
        push(Span {
            op,
            name: CLIENT,
            parent: "",
            kind: Some(kind),
            start_ns: ns_since_epoch(start),
            end_ns: ns_since_epoch(end),
        });
    }
}

/// A backend wrapper that records one span per `execute`.
pub struct Traced {
    inner: Arc<dyn ProviderBackend>,
    name: &'static str,
    parent: &'static str,
    /// Set on the outermost wrapper behind a socket: the server thread
    /// cannot see the client's operation number, but one connection is
    /// served in issue order, so counting executions recovers it.
    counts_ops: bool,
}

impl Traced {
    pub fn new(
        inner: Arc<dyn ProviderBackend>,
        name: &'static str,
        parent: &'static str,
    ) -> Arc<Traced> {
        Arc::new(Traced {
            inner,
            name,
            parent,
            counts_ops: false,
        })
    }

    pub fn behind_socket(
        inner: Arc<dyn ProviderBackend>,
        name: &'static str,
        parent: &'static str,
    ) -> Arc<Traced> {
        Arc::new(Traced {
            inner,
            name,
            parent,
            counts_ops: true,
        })
    }
}

impl ProviderBackend for Traced {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        if !enabled() {
            return self.inner.execute(op);
        }
        if self.counts_ops {
            begin_op(SERVER_SEQ.fetch_add(1, Ordering::Relaxed));
        }
        let start = Instant::now();
        let result = self.inner.execute(op);
        let end = Instant::now();
        push(Span {
            op: CURRENT_OP.with(|c| c.get()),
            name: self.name,
            parent: self.parent,
            kind: None,
            start_ns: ns_since_epoch(start),
            end_ns: ns_since_epoch(end),
        });
        result
    }

    fn provider_id(&self) -> String {
        self.inner.provider_id()
    }

    fn compound_syntax(&self) -> CompoundSyntax {
        self.inner.compound_syntax()
    }

    fn event_hub(&self) -> Option<Arc<EventHub>> {
        self.inner.event_hub()
    }

    fn wire_format(&self) -> WireFormat {
        self.inner.wire_format()
    }
}

/// What the spans of one traced window say.
pub struct TraceSummary {
    pub spans: usize,
    pub ops: usize,
    /// p50 over lookups of each layer's self time, in µs.
    pub read_self_us: BTreeMap<&'static str, f64>,
}

impl TraceSummary {
    pub fn spans_per_op(&self) -> f64 {
        self.spans as f64 / self.ops.max(1) as f64
    }

    /// Σ over layers of the p50 self time of a lookup.
    pub fn read_self_sum_us(&self) -> f64 {
        self.read_self_us.values().sum()
    }
}

/// Take the recorded spans, write them to `path` as JSON lines, and fold
/// them into per-layer self times: a span's duration minus the part its
/// child spans cover.
pub fn finish(path: &std::path::Path) -> std::io::Result<TraceSummary> {
    pause();
    let spans = std::mem::take(&mut *sink().lock().expect("span sink poisoned"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        let kind = s
            .kind
            .map_or(String::new(), |k| format!("{k:?}").to_lowercase());
        writeln!(
            out,
            r#"{{"op":{},"span":"{}","parent":"{}","kind":"{}","start_ns":{},"end_ns":{}}}"#,
            s.op, s.name, s.parent, kind, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;

    let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in &spans {
        by_op.entry(s.op).or_default().push(s);
    }
    let mut self_by_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op_spans in by_op.values() {
        let is_read = op_spans
            .iter()
            .any(|s| s.name == CLIENT && s.kind == Some(Kind::Read));
        if !is_read {
            continue;
        }
        let mut layer_self: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in op_spans {
            let children: u64 = op_spans
                .iter()
                .filter(|c| c.parent == s.name)
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *layer_self.entry(s.name).or_default() += own as f64 / 1e3;
        }
        for (layer, us) in layer_self {
            self_by_layer.entry(layer).or_default().push(us);
        }
    }
    Ok(TraceSummary {
        spans: spans.len(),
        ops: by_op.len(),
        read_self_us: self_by_layer
            .into_iter()
            .map(|(layer, v)| (layer, median(&v)))
            .collect(),
    })
}
