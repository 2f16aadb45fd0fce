//! Counters, gauges, log2-bucket latency histograms, and the process-wide
//! registry that renders them as Prometheus-style text.
//!
//! Instruments are cheap handles over atomics: look one up once
//! (`counter("rndi_ops_total", &[("provider", p)])`), keep the `Arc`, and
//! bump it lock-free on the hot path. The registry lock is only taken on
//! first registration and at render/reset time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;

/// Number of histogram buckets. Bucket `i` counts values `<= 2^i`
/// nanoseconds; the last bucket is the `+Inf` overflow. 2^38 ns ≈ 275 s,
/// far beyond any naming op.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Default cap on distinct `(name, label set)` series per registry
/// (`rndi.obs.max-series`). Past the cap, new label sets fold into an
/// `overflow="true"` series instead of growing the registry unboundedly
/// under per-client labels.
const DEFAULT_MAX_SERIES: usize = 4096;

/// Canonical metric names shared across the workspace, so the core
/// pipeline, providers, servers, and benches all feed the same families.
pub mod names {
    /// Histogram, ns: `{provider, op, layer}`.
    pub const OP_DURATION: &str = "rndi_op_duration_ns";
    /// Counter: `{provider, op, layer, outcome}`.
    pub const OPS_TOTAL: &str = "rndi_ops_total";
    /// Counter: `{provider, event}` with `event` one of
    /// `hit|miss|invalidation|eviction`.
    pub const CACHE_EVENTS: &str = "rndi_cache_events_total";
    /// Counter: `{provider}` — retry re-submissions (attempts beyond the
    /// first).
    pub const RETRIES: &str = "rndi_retries_total";
    /// Counter: `{provider, event}` with `event` one of
    /// `grant|renew|expire|cancel`.
    pub const LEASE_EVENTS: &str = "rndi_lease_events_total";
    /// Counter: `{provider, event}` — distributed mutex events
    /// (`acquire|wait|release`).
    pub const MUTEX_EVENTS: &str = "rndi_mutex_events_total";
    /// Counter: `{provider, path}` with `path` one of `index|scan` — how a
    /// read was satisfied, so the fallback-to-scan rate is visible.
    pub const INDEX_READS: &str = "rndi_index_reads_total";
    /// Histogram: mounts fanned out per federated search.
    pub const FED_FANOUT: &str = "rndi_federation_fanout_width";
    /// Histogram: federation recursion depth per federated search.
    pub const FED_DEPTH: &str = "rndi_federation_depth";
    /// Counter: `{server, op}` — ops observed server-side.
    pub const SERVER_OPS: &str = "rndi_server_ops_total";
    /// Histogram, ns: `{server, op}` — server-side service time.
    pub const SERVER_DURATION: &str = "rndi_server_duration_ns";
    /// Counter: `{provider, dir}` with `dir` one of `read|write` — bytes
    /// moved through a storage-backed provider.
    pub const IO_BYTES: &str = "rndi_io_bytes_total";
    /// Counter: `{server, dir}` with `dir` one of `in|out` — payload bytes
    /// moved across the TCP transport, server side.
    pub const NET_BYTES: &str = "rndi_net_bytes_total";
    /// Counter: `{server}` — connections accepted over the server's life.
    pub const NET_CONNS: &str = "rndi_net_connections_total";
    /// Gauge: `{server}` — connections currently being served.
    pub const NET_ACTIVE_CONNS: &str = "rndi_net_active_connections";
    /// Counter: `{server, op, outcome}` — requests decoded and dispatched
    /// by a `NetServer` (`outcome` is `ok|err`).
    pub const NET_REQUESTS: &str = "rndi_net_requests_total";
    /// Histogram, ns: `{server, op}` — server-side request service time,
    /// decode through encode.
    pub const NET_REQUEST_DURATION: &str = "rndi_net_request_duration_ns";
    /// Counter: `{endpoint, event}` with `event` one of
    /// `dial|redial|reuse|drop|health_ok|health_fail` — client-side
    /// connection-pool activity.
    pub const NET_CLIENT_EVENTS: &str = "rndi_net_client_events_total";
    /// Counter: `{key}` — environment properties whose value failed to
    /// parse and fell back to a default (config hygiene warning).
    pub const CONFIG_PARSE_ERRORS: &str = "rndi_config_parse_errors_total";
    /// Gauge: `{endpoint}` — connections currently pooled by a
    /// `NetClient` for one endpoint.
    pub const NET_POOL_SIZE: &str = "rndi_net_pool_size";
    /// Counter: `{endpoint, reason}` with `reason` one of `idle|cap` —
    /// pooled client connections closed by pool hygiene.
    pub const NET_POOL_EVICTIONS: &str = "rndi_net_pool_evictions_total";
    /// Gauge: `{server, shard}` — calls waiting in one event-loop shard's
    /// admission queue.
    pub const NET_QUEUE_DEPTH: &str = "rndi_net_queue_depth";
    /// Counter: `{server, reason}` with `reason` one of
    /// `queue|rate|deadline` — calls shed with `Overloaded` before
    /// dispatch by the server's admission control.
    pub const NET_SHED: &str = "rndi_net_shed_total";
    /// Gauge: `{server, shard}` — the AIMD controller's current effective
    /// admission-queue bound for one shard (equals the configured
    /// queue-depth when the adaptive controller is off).
    pub const NET_CONCURRENCY_LIMIT: &str = "rndi_net_concurrency_limit";
    /// Counter: `{router, reason}` — scatter ops that returned a flagged
    /// partial result because one or more legs were shed (`overloaded`).
    pub const SHARD_PARTIAL: &str = "rndi_shard_partial_total";
    /// Counter: `{router, shard, mode}` with `mode` one of
    /// `point|scatter` — ops a shard router sent to each shard.
    pub const SHARD_ROUTED: &str = "rndi_shard_routed_total";
    /// Histogram: `{router}` — shards touched per scatter op.
    pub const SHARD_FANOUT: &str = "rndi_shard_fanout_width";
    /// Histogram: `{router}` — scatter imbalance per op, as
    /// `100 × max(per-shard hits) / mean(per-shard hits)` (100 = perfectly
    /// even; only recorded for scatter ops that returned hits).
    pub const SHARD_IMBALANCE: &str = "rndi_shard_scatter_imbalance";
    /// Counter (no labels): label sets folded into an `overflow="true"`
    /// series because the registry hit its series cap.
    pub(crate) const SERIES_OVERFLOW: &str = "rndi_obs_series_overflow_total";
    /// Counter: `{sink}` with `sink` one of `flight|trace_file` — writes a
    /// file sink could not make (an unopenable trace file, a failed span
    /// line, a flight dump that did not reach disk).
    pub const SINK_ERRORS: &str = "rndi_obs_sink_errors_total";
    /// Counter (no labels): spans evicted from the trace ring buffer
    /// before anyone read them — a nonzero value means ring dumps are
    /// partial.
    pub const TRACE_DROPPED: &str = "rndi_obs_trace_dropped_total";
    /// Gauge (per instance): members this node believes Alive.
    pub const CLUSTER_MEMBERS: &str = "rndi_cluster_members";
    /// Gauge (per instance): members currently under phi suspicion.
    pub const CLUSTER_SUSPECTS: &str = "rndi_cluster_suspects";
    /// Gauge (per instance): sequence number of the installed view.
    pub const CLUSTER_VIEW_EPOCH: &str = "rndi_cluster_view_epoch";
    /// Counter (per instance): membership gossip rounds initiated.
    pub const CLUSTER_GOSSIP_ROUNDS: &str = "rndi_cluster_gossip_rounds_total";
    /// Gauge (per instance, label `peer`): phi score ×1000 for one peer,
    /// as scored by the accrual failure detector.
    pub const CLUSTER_PHI: &str = "rndi_cluster_phi_millis";
    /// Counter: HDNS replica persistence steps that failed — a log
    /// append, or any step of a compaction (tmp write, sync, rename,
    /// truncate).
    pub const HDNS_PERSIST_ERRORS: &str = "rndi_hdns_persist_errors_total";
    /// Counter: proposals appended to HDNS replica op logs.
    pub const HDNS_WAL_APPENDS: &str = "rndi_hdns_wal_appends_total";
    /// Counter: bytes appended to HDNS replica op logs (frames included).
    pub const HDNS_WAL_BYTES: &str = "rndi_hdns_wal_bytes_total";
    /// Counter: op logs folded into a fresh snapshot (log past its
    /// threshold, state transfer, shutdown).
    pub const HDNS_COMPACTIONS: &str = "rndi_hdns_compactions_total";
    /// Histogram, ns: one compaction, tmp write through log truncation,
    /// both syncs included.
    pub const HDNS_COMPACTION_DURATION: &str = "rndi_hdns_compaction_duration_ns";
    /// Counter: log records replayed on top of a snapshot at start-up.
    pub const HDNS_RECOVERY_REPLAYED: &str = "rndi_hdns_recovery_replayed_total";
    /// Counter: replica start-ups that met an unreadable or unparseable
    /// snapshot or log (see `HdnsNode::recovery`).
    pub const HDNS_RECOVERY_ERRORS: &str = "rndi_hdns_recovery_errors_total";
    /// Counter: group deliveries an HDNS replica could not decode as a
    /// proposal (another version's, or damaged) and so did not apply —
    /// from then on it may differ from replicas that could.
    pub const HDNS_UNDECODABLE_PROPOSALS: &str = "rndi_hdns_undecodable_proposals_total";
    /// Counter: state snapshots a joining (or resyncing) HDNS replica was
    /// handed and could not decode; its store stays as it was.
    pub const HDNS_UNDECODABLE_STATE: &str = "rndi_hdns_undecodable_state_total";
    /// Counter: state snapshots a coordinating HDNS replica failed to send
    /// to a joiner, which then waits for the next view change.
    pub const HDNS_STATE_SEND_ERRORS: &str = "rndi_hdns_state_send_errors_total";
    /// Counter (per instance): `Group` gossip frames dropped because their
    /// payload did not decode as a group wire message.
    pub const CLUSTER_UNDECODABLE_FRAMES: &str = "rndi_cluster_undecodable_frames_total";
}

/// A monotonically increasing counter.
#[derive(Default)]
// Instruments are tiny allocations updated from hot paths; without the
// alignment, two threads' counters (say the client's and the server's
// per-op totals) can land on one cache line and ping-pong it on every
// operation. 128 bytes covers the adjacent-line spatial prefetcher.
#[repr(align(128))]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Default)]
#[repr(align(128))]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket latency histogram with power-of-two bucket bounds.
///
/// Recording is two relaxed atomic adds plus one for the bucket — no lock,
/// no allocation — so it can sit on the per-op hot path. Quantiles are
/// estimated by linear interpolation inside the winning bucket, giving
/// sub-bucket resolution that is plenty for p50/p95/p99 reporting.
#[repr(align(128))]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// ceil(log2(value)): the smallest `i` with `value <= 2^i`, clamped
    /// into the bucket range. Public so off-registry accumulators (the
    /// flight recorder, snapshot merges) bucket identically.
    pub fn bucket_index(value: u64) -> usize {
        let i = if value <= 1 {
            0
        } else {
            (64 - (value - 1).leading_zeros()) as usize
        };
        i.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Upper bound of bucket `i` (the last bucket reports `+Inf`).
    pub fn bucket_bound(i: usize) -> Option<u64> {
        (i + 1 < HISTOGRAM_BUCKETS).then(|| 1u64 << i)
    }

    /// Record one observation (nanoseconds by convention).
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// Per-bucket counts (quantiles and snapshots).
    fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) of recorded values.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_over(&self.bucket_counts(), self.sum(), q)
    }
}

/// Quantile estimate over raw log2 bucket counts — the same interpolation
/// [`Histogram::quantile`] uses, shared with merged snapshot histograms.
pub fn quantile_over(counts: &[u64], sum: u64, q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut cum = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (cum + n) as f64 >= target {
            let lower = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
            let upper = match Histogram::bucket_bound(i) {
                Some(b) => b,
                None => lower.saturating_mul(2),
            };
            let frac = (target - cum as f64) / n as f64;
            return Some(lower as f64 + frac * (upper - lower) as f64);
        }
        cum += n;
    }
    Some(sum as f64 / total as f64)
}

// ----------------------------------------------------------- registry --

/// Canonical label set: sorted key/value pairs.
pub type Labels = Vec<(String, String)>;

fn canonical(labels: &[(&str, &str)]) -> Labels {
    let mut v: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v
}

fn escape(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

pub(crate) fn label_block(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

pub(crate) fn label_block_with(labels: &Labels, extra_key: &str, extra_value: &str) -> String {
    let mut all = labels.clone();
    all.push((extra_key.to_string(), extra_value.to_string()));
    all.sort();
    label_block(&all)
}

#[derive(Default)]
struct Family<T> {
    /// label-block string → instrument, per metric name (BTreeMap for a
    /// deterministic render order).
    by_name: BTreeMap<String, BTreeMap<String, (Labels, Arc<T>)>>,
}

impl<T: Default> Family<T> {
    fn lookup(&self, name: &str, key: &str) -> Option<Arc<T>> {
        self.by_name
            .get(name)
            .and_then(|f| f.get(key))
            .map(|(_, inst)| inst.clone())
    }

    fn insert(&mut self, name: &str, labels: Labels, key: String) -> Arc<T> {
        let inst = Arc::new(T::default());
        self.by_name
            .entry(name.to_string())
            .or_default()
            .insert(key, (labels, inst.clone()));
        inst
    }

    /// Lookup-or-insert under the series cap. On a would-be insert past
    /// the cap, the labels fold into `overflow="true"` and the second
    /// return is `true`. Overflow series themselves bypass the cap (they
    /// are bounded by the number of metric names).
    fn get_capped(
        &mut self,
        series: &AtomicUsize,
        max: usize,
        name: &str,
        labels: &[(&str, &str)],
    ) -> (Arc<T>, bool) {
        let labels = canonical(labels);
        let key = label_block(&labels);
        if let Some(found) = self.lookup(name, &key) {
            return (found, false);
        }
        let folds =
            series.load(Ordering::Relaxed) >= max && !labels.iter().any(|(k, _)| k == "overflow");
        if folds {
            let fold_labels = canonical(&[("overflow", "true")]);
            let fold_key = label_block(&fold_labels);
            if let Some(found) = self.lookup(name, &fold_key) {
                return (found, true);
            }
            series.fetch_add(1, Ordering::Relaxed);
            return (self.insert(name, fold_labels, fold_key), true);
        }
        series.fetch_add(1, Ordering::Relaxed);
        (self.insert(name, labels, key), false)
    }
}

/// A set of named, labeled instruments. Most code uses the process-wide
/// [`global_registry`] through the free functions below; tests and
/// per-shard servers can build private registries.
pub struct Registry {
    counters: Mutex<Family<Counter>>,
    gauges: Mutex<Family<Gauge>>,
    histograms: Mutex<Family<Histogram>>,
    /// Distinct (name, label set) series across all three families.
    series: AtomicUsize,
    max_series: AtomicUsize,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            counters: Mutex::default(),
            gauges: Mutex::default(),
            histograms: Mutex::default(),
            series: AtomicUsize::new(0),
            max_series: AtomicUsize::new(DEFAULT_MAX_SERIES),
        }
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Change the series cap (`rndi.obs.max-series`); `0` means unlimited.
    pub fn set_max_series(&self, max: usize) {
        let max = if max == 0 { usize::MAX } else { max };
        self.max_series.store(max, Ordering::Relaxed);
    }

    /// Number of distinct series currently registered.
    pub fn series_count(&self) -> usize {
        self.series.load(Ordering::Relaxed)
    }

    fn max(&self) -> usize {
        self.max_series.load(Ordering::Relaxed)
    }

    /// Bump [`names::SERIES_OVERFLOW`], bypassing the cap. Called after
    /// the originating family lock is released — never nested.
    fn note_overflow(&self) {
        let handle = {
            let mut fam = self.counters.lock();
            let key = label_block(&Vec::new());
            match fam.lookup(names::SERIES_OVERFLOW, &key) {
                Some(c) => c,
                None => {
                    self.series.fetch_add(1, Ordering::Relaxed);
                    fam.insert(names::SERIES_OVERFLOW, Vec::new(), key)
                }
            }
        };
        handle.inc();
    }

    /// The counter `name{labels}`, created on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let (c, folded) = self
            .counters
            .lock()
            .get_capped(&self.series, self.max(), name, labels);
        if folded {
            self.note_overflow();
        }
        c
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let (g, folded) = self
            .gauges
            .lock()
            .get_capped(&self.series, self.max(), name, labels);
        if folded {
            self.note_overflow();
        }
        g
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let (h, folded) = self
            .histograms
            .lock()
            .get_capped(&self.series, self.max(), name, labels);
        if folded {
            self.note_overflow();
        }
        h
    }

    /// Sum of a counter family across all label sets (tests, reports).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .by_name
            .get(name)
            .map(|f| f.values().map(|(_, c)| c.get()).sum())
            .unwrap_or(0)
    }

    /// Drop every registered instrument (test isolation). Handles already
    /// held elsewhere keep counting into detached instruments.
    pub fn reset(&self) {
        self.counters.lock().by_name.clear();
        self.gauges.lock().by_name.clear();
        self.histograms.lock().by_name.clear();
        self.series.store(0, Ordering::Relaxed);
    }

    /// A point-in-time, serializable copy of every instrument — the
    /// payload of the remote-scrape admin call (see [`crate::snapshot`]).
    pub fn snapshot(&self) -> crate::snapshot::MetricsSnapshot {
        let mut snap = crate::snapshot::MetricsSnapshot::default();
        for (name, family) in &self.counters.lock().by_name {
            for (labels, c) in family.values() {
                snap.counters.push(crate::snapshot::CounterSeries {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: c.get(),
                });
            }
        }
        for (name, family) in &self.gauges.lock().by_name {
            for (labels, g) in family.values() {
                snap.gauges.push(crate::snapshot::GaugeSeries {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: g.get(),
                });
            }
        }
        for (name, family) in &self.histograms.lock().by_name {
            for (labels, h) in family.values() {
                snap.histograms.push(crate::snapshot::HistogramSeries {
                    name: name.clone(),
                    labels: labels.clone(),
                    buckets: h.bucket_counts().to_vec(),
                    sum: h.sum(),
                    count: h.count(),
                });
            }
        }
        snap
    }

    /// Render every instrument as Prometheus-style text exposition lines
    /// (the one renderer is [`MetricsSnapshot::render`]).
    ///
    /// [`MetricsSnapshot::render`]: crate::snapshot::MetricsSnapshot::render
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// A shared handle on the process-wide registry — what servers embed by
/// default so one-process deployments scrape the whole picture.
pub fn global_registry() -> Arc<Registry> {
    global().clone()
}

/// The process-wide counter `name{labels}`.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    global().counter(name, labels)
}

/// The process-wide gauge `name{labels}`.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
    global().gauge(name, labels)
}

/// The process-wide histogram `name{labels}`.
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    global().histogram(name, labels)
}

/// Sum one process-wide counter family across label sets.
pub fn counter_total(name: &str) -> u64 {
    global().counter_total(name)
}

/// Render the process-wide registry as exposition text.
pub fn render() -> String {
    global().render()
}

/// Snapshot the process-wide registry (see [`Registry::snapshot`]).
pub fn snapshot() -> crate::snapshot::MetricsSnapshot {
    global().snapshot()
}

/// Cap the process-wide registry's series cardinality
/// (`rndi.obs.max-series`); `0` means unlimited.
pub fn set_max_series(max: usize) {
    global().set_max_series(max)
}

/// Clear the process-wide registry (test isolation).
pub fn reset() {
    global().reset()
}

/// Every histogram of one process-wide family, as
/// `(labels, histogram)` pairs — reports iterate these for per-provider
/// latency rows.
pub fn histogram_family(name: &str) -> Vec<(Labels, Arc<Histogram>)> {
    global()
        .histograms
        .lock()
        .by_name
        .get(name)
        .map(|f| f.values().cloned().collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("ops_total", &[("provider", "p1")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Same (name, labels) → same instrument; label order is canonical.
        let again = r.counter("ops_total", &[("provider", "p1")]);
        again.inc();
        assert_eq!(c.get(), 4);
        assert_eq!(r.counter_total("ops_total"), 4);

        let g = r.gauge("queue_depth", &[]);
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);

        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let p50 = h.quantile(0.5).unwrap();
        assert!((300.0..700.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 > p50 && p99 <= 1024.0, "p99 {p99}");
        assert!(h.quantile(1.0).unwrap() <= 1024.0);
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn quantile_monotone_in_q() {
        let h = Histogram::new();
        for v in [10u64, 100, 1_000, 10_000, 100_000] {
            for _ in 0..20 {
                h.record(v);
            }
        }
        let mut last = 0.0;
        for q in [0.1, 0.5, 0.9, 0.99] {
            let v = h.quantile(q).unwrap();
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn series_cap_folds_into_overflow() {
        let r = Registry::new();
        r.set_max_series(3);
        let a = r.counter("capped_total", &[("client", "c0")]);
        r.counter("capped_total", &[("client", "c1")]).inc();
        r.gauge("depth", &[]).set(1);
        assert_eq!(r.series_count(), 3);

        // Past the cap: new label sets fold into one overflow series;
        // existing series keep resolving to their own instruments.
        let folded1 = r.counter("capped_total", &[("client", "c2")]);
        let folded2 = r.counter("capped_total", &[("client", "c3")]);
        assert!(Arc::ptr_eq(&folded1, &folded2), "fold shares one series");
        folded1.inc();
        folded2.inc();
        a.inc();
        assert!(Arc::ptr_eq(
            &a,
            &r.counter("capped_total", &[("client", "c0")])
        ));

        let text = r.render();
        assert!(text.contains("capped_total{overflow=\"true\"} 2"), "{text}");
        assert!(text.contains("rndi_obs_series_overflow_total 2"), "{text}");

        // Gauges and histograms fold too (and the cross-family overflow
        // bump must not deadlock).
        let h1 = r.histogram("lat_ns", &[("client", "c8")]);
        let h2 = r.histogram("lat_ns", &[("client", "c9")]);
        assert!(Arc::ptr_eq(&h1, &h2));
        assert_eq!(r.counter_total(names::SERIES_OVERFLOW), 4);
    }

    #[test]
    fn render_is_parseable_and_labeled() {
        let r = Registry::new();
        r.counter("rndi_ops_total", &[("provider", "a\"b")]).inc();
        r.gauge("rndi_up", &[]).set(1);
        let h = r.histogram("rndi_latency_ns", &[("op", "lookup")]);
        h.record(3);
        h.record(900);
        let text = r.render();
        assert!(text.contains("# TYPE rndi_ops_total counter"));
        assert!(text.contains("rndi_ops_total{provider=\"a\\\"b\"} 1"));
        assert!(text.contains("# TYPE rndi_latency_ns histogram"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("rndi_latency_ns_count{op=\"lookup\"} 2"));
        let samples = crate::expo::parse(&text).expect("own render parses");
        assert!(samples.len() >= 5);
        // +Inf cumulative count equals _count.
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "rndi_latency_ns_bucket"
                    && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .unwrap();
        assert_eq!(inf.value, 2.0);
        r.reset();
        assert_eq!(r.render(), "");
    }
}
