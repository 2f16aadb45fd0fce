//! The cluster telemetry plane's aggregation tier: scrape every shard's
//! metrics, health, and trace ring over the admin vocabulary and merge
//! them into one coherent cluster view.
//!
//! A [`ClusterObserver`] holds one v2 [`NetClient`] per shard endpoint
//! and fans the three admin calls (metrics, health, trace dump) out
//! through the same bounded worker pool the router uses for scatter ops.
//! [`ClusterObserver::scrape_all`] then:
//!
//! - stamps every per-instance snapshot with an `instance` label and
//!   merges them, so shard series never collide;
//! - computes a cluster rollup (labels `server`/`endpoint`/`instance`
//!   dropped, re-labeled `instance="cluster"`) whose totals are exactly
//!   the sum of the per-instance series — the merge proofs live in
//!   `rndi-obs/tests/merge_props.rs`;
//! - assembles cross-node traces by trace id from the union of every
//!   shard's ring and the local (router-side) ring, deduplicated by
//!   span id, so one trace shows its router, client, server, pipeline,
//!   and backend legs together;
//! - derives cluster signals: per-shard load imbalance, saturation
//!   headroom, per-op latency quantiles from the rollup histograms, and
//!   the membership picture from each instance's `rndi_cluster_*` gauges
//!   (present only where a membership plane runs).
//!
//! Unreachable shards degrade the scrape, not fail it: their ids land in
//! [`ClusterScrape::unreachable`] and everything else still merges.

use std::collections::{BTreeMap, HashSet};

use rndi_core::env::{keys, Environment};
use rndi_core::error::Result;
use rndi_core::federation::fan_out;
use rndi_net::NetClient;
use rndi_obs::metrics::names;
use rndi_obs::{HealthSummary, MetricsSnapshot, SpanRecord};

use crate::map::ShardMap;
use crate::router::DEFAULT_FANOUT;

/// Labels that identify *where* a series came from; the cluster rollup
/// drops them so identical series from different shards sum together.
const INSTANCE_LABELS: &[&str] = &["server", "endpoint", "instance"];

/// One shard's answers to the three admin scrape calls.
// Public as the element type of `ClusterScrape::instances`.
#[derive(Clone, Debug)]
pub struct InstanceScrape {
    /// Shard id from the [`ShardMap`] (`shard-0`, ...).
    pub id: String,
    /// `host:port` the scrape hit.
    pub endpoint: String,
    /// The shard's metrics, already stamped with `instance=<id>`.
    pub metrics: MetricsSnapshot,
    pub health: HealthSummary,
    /// Everything the shard's trace ring still buffered.
    pub spans: Vec<SpanRecord>,
}

/// One cross-node trace: every buffered span sharing a trace id, from
/// whichever process recorded it.
#[derive(Clone, Debug)]
pub struct AssembledTrace {
    pub trace_id: u64,
    /// Sorted shallow-to-deep, ties broken by span id, so a walk reads
    /// root → leaf.
    pub spans: Vec<SpanRecord>,
}

impl AssembledTrace {
    /// The root span, if the ring still held it.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent_span == 0)
    }

    /// Distinct layers in depth order ("router", "client", "server", ...).
    pub fn layers(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for span in &self.spans {
            if !seen.contains(&span.layer.as_ref()) {
                seen.push(span.layer.as_ref());
            }
        }
        seen
    }

    /// End-to-end duration: the root span's if present, else the longest
    /// surviving span.
    pub fn duration_ns(&self) -> u64 {
        self.root()
            .map(|s| s.duration_ns)
            .or_else(|| self.spans.iter().map(|s| s.duration_ns).max())
            .unwrap_or(0)
    }
}

/// Latency quantiles for one op kind, from the cluster rollup histogram.
#[derive(Clone, Debug)]
pub struct OpLatency {
    pub op: String,
    pub count: u64,
    pub p50_ns: f64,
    pub p95_ns: f64,
    pub p99_ns: f64,
}

/// Signals derived from the merged view, not scraped from any one shard.
#[derive(Clone, Debug, Default)]
pub struct DerivedSignals {
    /// `100 × max/mean` of per-instance request totals: 100 is perfect
    /// balance, 200 means the hottest shard carries twice the mean.
    pub imbalance_pct: f64,
    /// The *worst* shard's connection headroom (`1 − active/max`): the
    /// cluster saturates when its fullest shard does.
    pub headroom: f64,
    /// The *worst* shard's admission headroom (`1 − queued/limit` over
    /// its bounded admission queues): how close the cluster is to
    /// shedding load. `1.0` when no shard bounds admission.
    pub admission_headroom: f64,
    /// Total ops shed (`Overloaded`) across the cluster, all reasons
    /// (queue full, rate limit, deadline expired in queue).
    pub shed_total: u64,
    /// Highest `rndi_cluster_view_epoch` across instances (`0` when no
    /// instance runs a cluster membership plane).
    pub view_epoch: u64,
    /// `rndi_cluster_members` / `rndi_cluster_suspects` of the instance
    /// holding that highest view — the freshest membership opinion scraped.
    pub members_alive: u64,
    pub members_suspect: u64,
    /// Whether every membership-bearing instance reported the same view
    /// epoch this pass. `true` when none did (vacuously converged).
    pub view_converged: bool,
    /// Per-op-kind latency quantiles over all shards.
    pub per_op: Vec<OpLatency>,
}

/// The merged product of one [`ClusterObserver::scrape_all`] pass.
#[derive(Clone, Debug)]
pub struct ClusterScrape {
    /// Per-shard scrapes, map order, reachable shards only.
    pub instances: Vec<InstanceScrape>,
    /// Shard ids whose admin calls failed this pass.
    pub unreachable: Vec<String>,
    /// Every instance's series (`instance=<id>`) plus the cluster rollup
    /// (`instance="cluster"`) in one snapshot.
    pub merged: MetricsSnapshot,
    /// Cross-node traces assembled by id, union of every ring scraped.
    pub traces: Vec<AssembledTrace>,
    pub signals: DerivedSignals,
}

impl ClusterScrape {
    /// The whole cluster as one Prometheus-style exposition.
    pub fn exposition(&self) -> String {
        self.merged.render()
    }

    /// One assembled trace by id.
    pub fn trace(&self, trace_id: u64) -> Option<&AssembledTrace> {
        self.traces.iter().find(|t| t.trace_id == trace_id)
    }

    /// Assembled traces ordered slowest-first.
    pub fn slowest_traces(&self, n: usize) -> Vec<&AssembledTrace> {
        let mut ordered: Vec<&AssembledTrace> = self.traces.iter().collect();
        ordered.sort_by_key(|t| std::cmp::Reverse(t.duration_ns()));
        ordered.truncate(n);
        ordered
    }
}

/// Scrapes a shard cluster's telemetry over the data sockets.
pub struct ClusterObserver {
    shards: Vec<(String, NetClient)>,
    fanout: usize,
}

impl ClusterObserver {
    /// One admin client per shard in `map`.
    pub fn new(map: &ShardMap, env: &Environment) -> Result<ClusterObserver> {
        let shards = map
            .shards()
            .iter()
            .map(|s| NetClient::new(s.endpoint(), env).map(|c| (s.id().to_string(), c)))
            .collect::<Result<Vec<_>>>()?;
        Ok(ClusterObserver {
            shards,
            fanout: env.get_u64(keys::SHARD_FANOUT, DEFAULT_FANOUT).max(1) as usize,
        })
    }

    /// Scrape every shard concurrently and merge into one cluster view.
    pub fn scrape_all(&self) -> ClusterScrape {
        let legs = fan_out(self.shards.len(), self.fanout, |i| {
            let (id, client) = &self.shards[i];
            let metrics = client.scrape_metrics()?;
            let health = client.scrape_health()?;
            let spans = client.dump_spans()?;
            Ok::<InstanceScrape, rndi_core::error::NamingError>(InstanceScrape {
                id: id.clone(),
                endpoint: client.endpoint().to_string(),
                metrics: metrics.with_label("instance", id),
                health,
                spans,
            })
        });

        let mut instances = Vec::with_capacity(legs.len());
        let mut unreachable = Vec::new();
        for (i, leg) in legs.into_iter().enumerate() {
            match leg {
                Ok(scrape) => instances.push(scrape),
                Err(_) => unreachable.push(self.shards[i].0.clone()),
            }
        }

        // Per-instance series first; the rollup (identity labels dropped,
        // re-stamped instance="cluster") merges in on top. Conservation —
        // rollup totals equal the sum of instance totals — is the merge
        // monoid's associativity, property-tested in rndi-obs.
        let mut merged = MetricsSnapshot::default();
        for inst in &instances {
            merged.merge_from(&inst.metrics);
        }
        let rollup = merged
            .rollup_dropping(INSTANCE_LABELS)
            .with_label("instance", "cluster");
        let signals = derive_signals(&instances, &rollup);
        merged.merge_from(&rollup);

        let traces = assemble_traces(&instances);

        ClusterScrape {
            instances,
            unreachable,
            merged,
            traces,
            signals,
        }
    }
}

/// Group the union of every scraped ring *plus the local ring* (the
/// router and client legs of a trace are recorded in the scraping
/// process, not on any shard) by trace id, deduplicating spans that were
/// somehow scraped twice.
fn assemble_traces(instances: &[InstanceScrape]) -> Vec<AssembledTrace> {
    let local = rndi_obs::trace::ring().snapshot();
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for span in instances
        .iter()
        .flat_map(|inst| inst.spans.iter())
        .chain(local.iter())
    {
        if seen.insert((span.trace_id, span.span_id)) {
            by_trace
                .entry(span.trace_id)
                .or_default()
                .push(span.clone());
        }
    }
    by_trace
        .into_iter()
        .map(|(trace_id, mut spans)| {
            spans.sort_by_key(|s| (s.depth, s.span_id));
            AssembledTrace { trace_id, spans }
        })
        .collect()
}

fn derive_signals(instances: &[InstanceScrape], rollup: &MetricsSnapshot) -> DerivedSignals {
    let totals: Vec<u64> = instances
        .iter()
        .map(|inst| inst.health.requests_ok + inst.health.requests_err)
        .collect();
    let sum: u64 = totals.iter().sum();
    let imbalance_pct = if sum == 0 || totals.is_empty() {
        100.0
    } else {
        let max = totals.iter().copied().max().unwrap_or(0) as f64;
        let mean = sum as f64 / totals.len() as f64;
        100.0 * max / mean
    };
    let headroom = instances
        .iter()
        .map(|inst| inst.health.headroom())
        .fold(1.0_f64, f64::min);
    let admission_headroom = instances
        .iter()
        .map(|inst| inst.health.admission_headroom())
        .fold(1.0_f64, f64::min);
    let shed_total = instances.iter().map(|inst| inst.health.shed_total).sum();

    // Membership: only instances running a cluster plane export the
    // `rndi_cluster_*` gauges, with a non-zero member count (a node always
    // counts itself alive). The rollup takes the freshest opinion — the
    // highest view epoch scraped — and flags whether every
    // membership-bearing instance agreed on it.
    let gauge = |inst: &InstanceScrape, name| {
        let series = inst.metrics.gauges.iter().find(|g| g.name == name);
        series.map_or(0, |g| g.value.max(0) as u64)
    };
    let epoch = |inst| gauge(inst, names::CLUSTER_VIEW_EPOCH);
    let membered: Vec<&InstanceScrape> = instances
        .iter()
        .filter(|inst| gauge(inst, names::CLUSTER_MEMBERS) > 0)
        .collect();
    let view_epoch = membered.iter().map(|inst| epoch(inst)).max().unwrap_or(0);
    let freshest = membered.iter().find(|inst| epoch(inst) == view_epoch);
    let members_alive = freshest.map_or(0, |inst| gauge(inst, names::CLUSTER_MEMBERS));
    let members_suspect = freshest.map_or(0, |inst| gauge(inst, names::CLUSTER_SUSPECTS));
    let view_converged = membered.iter().all(|inst| epoch(inst) == view_epoch);

    // The rollup keys request-duration histograms by op alone, so each
    // one is the whole cluster's latency distribution for that op.
    let mut per_op: Vec<OpLatency> = rollup
        .histograms
        .iter()
        .filter(|h| h.name == names::NET_REQUEST_DURATION && h.count > 0)
        .map(|h| OpLatency {
            op: h
                .labels
                .iter()
                .find(|(k, _)| k == "op")
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| "?".to_string()),
            count: h.count,
            p50_ns: h.quantile(0.50).unwrap_or(0.0),
            p95_ns: h.quantile(0.95).unwrap_or(0.0),
            p99_ns: h.quantile(0.99).unwrap_or(0.0),
        })
        .collect();
    per_op.sort_by(|a, b| a.op.cmp(&b.op));

    DerivedSignals {
        imbalance_pct,
        headroom,
        admission_headroom,
        shed_total,
        view_epoch,
        members_alive,
        members_suspect,
        view_converged,
        per_op,
    }
}
