//! Observability primitives for the RNDI pipeline.
//!
//! This crate sits *below* every other workspace crate (it depends only on
//! vendored `parking_lot`/`serde`), so providers, servers, and the core
//! pipeline can all emit into one process-wide view:
//!
//! * [`trace`] — structured tracing. A [`TraceCtx`] (trace id, span id,
//!   parent, depth) is minted at the pipeline entry, propagated through
//!   interceptors and federation fan-out, and handed to servers as an
//!   explicit argument (in-process) or envelope field (`rndi-net`).
//!   Finished spans land in every installed [`TraceSink`]
//!   (bounded ring buffer by default, optional JSONL file sink).
//! * [`metrics`] — a registry of counters, gauges, and fixed-bucket (log2)
//!   latency histograms keyed by `(name, labels)`.
//! * [`expo`] — Prometheus-style text exposition: `metrics::render()`
//!   produces it, [`expo::parse`] validates it (used by tests and the CI
//!   smoke job).
//! * [`snapshot`] — serializable, mergeable registry snapshots plus the
//!   per-instance [`HealthSummary`]: the currency of the cluster telemetry
//!   plane (remote scrape over the v2 admin protocol, client-side merge).
//! * [`recorder`] — the always-on flight recorder: on an anomalous op
//!   (slower than a multiple of the trailing p99, or an error-rate spike)
//!   it dumps the trace ring and the metrics delta to a JSONL file.

pub mod clock;
pub mod expo;
pub mod metrics;
pub mod recorder;
pub mod snapshot;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use recorder::{FlightConfig, FlightRecorder};
pub use snapshot::{HealthSummary, MetricsSnapshot};
pub use trace::{RingSink, ServerOp, SpanOutcome, SpanRecord, TraceCell, TraceCtx, TraceSink};
