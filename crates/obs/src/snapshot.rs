//! Serializable, mergeable metrics snapshots — the currency of the
//! cluster telemetry plane.
//!
//! A [`MetricsSnapshot`] is a point-in-time copy of a [`Registry`]
//! (`Registry::snapshot()`), cheap to ship over the v2 admin protocol and
//! to fold together client-side. Merge semantics are the natural monoid:
//! counters sum, log2 histogram buckets add bucket-wise (so merged
//! quantiles stay meaningful), and gauges sum — callers that merge across
//! instances label each snapshot with `instance` first (see
//! [`MetricsSnapshot::with_label`]) so instantaneous gauge values never
//! actually mix. Merged output is kept sorted by `(name, labels)`, which
//! makes the merge associative and commutative — property-tested in
//! `tests/merge_props.rs`.
//!
//! [`Registry`]: crate::metrics::Registry

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::metrics::{self, Labels, HISTOGRAM_BUCKETS};

/// One counter series: `name{labels} value`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSeries {
    pub name: String,
    pub labels: Labels,
    pub value: u64,
}

/// One gauge series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSeries {
    pub name: String,
    pub labels: Labels,
    pub value: i64,
}

/// One histogram series: raw (non-cumulative) log2 bucket counts plus
/// sum/count, exactly as the live [`crate::metrics::Histogram`] holds them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSeries {
    pub name: String,
    pub labels: Labels,
    pub buckets: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl HistogramSeries {
    /// Quantile estimate over this series' buckets, same interpolation as
    /// the live histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        metrics::quantile_over(&self.buckets, self.sum, q)
    }
}

/// A point-in-time, serializable copy of a whole registry.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSeries>,
    pub gauges: Vec<GaugeSeries>,
    pub histograms: Vec<HistogramSeries>,
}

fn series_key(name: &str, labels: &Labels) -> (String, Labels) {
    let mut labels = labels.clone();
    labels.sort();
    (name.to_string(), labels)
}

fn add_label(labels: &Labels, key: &str, value: &str) -> Labels {
    let mut out: Labels = labels.iter().filter(|(k, _)| k != key).cloned().collect();
    out.push((key.to_string(), value.to_string()));
    out.sort();
    out
}

fn drop_labels(labels: &Labels, names: &[&str]) -> Labels {
    labels
        .iter()
        .filter(|(k, _)| !names.contains(&k.as_str()))
        .cloned()
        .collect()
}

impl MetricsSnapshot {
    /// Total of one counter family across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// A copy with `key="value"` set on every series (replacing any
    /// existing `key`). Cluster scrapes use this to stamp `instance`
    /// before merging, so per-instance series never collide.
    pub fn with_label(&self, key: &str, value: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| CounterSeries {
                    labels: add_label(&c.labels, key, value),
                    ..c.clone()
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|g| GaugeSeries {
                    labels: add_label(&g.labels, key, value),
                    ..g.clone()
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|h| HistogramSeries {
                    labels: add_label(&h.labels, key, value),
                    ..h.clone()
                })
                .collect(),
        }
    }

    /// Fold `other` into `self`: counters and gauges sum, histogram
    /// buckets add bucket-wise. Output stays sorted by `(name, labels)`.
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        let mut counters: BTreeMap<(String, Labels), u64> = BTreeMap::new();
        for c in self.counters.iter().chain(&other.counters) {
            *counters.entry(series_key(&c.name, &c.labels)).or_default() += c.value;
        }
        self.counters = counters
            .into_iter()
            .map(|((name, labels), value)| CounterSeries {
                name,
                labels,
                value,
            })
            .collect();

        let mut gauges: BTreeMap<(String, Labels), i64> = BTreeMap::new();
        for g in self.gauges.iter().chain(&other.gauges) {
            *gauges.entry(series_key(&g.name, &g.labels)).or_default() += g.value;
        }
        self.gauges = gauges
            .into_iter()
            .map(|((name, labels), value)| GaugeSeries {
                name,
                labels,
                value,
            })
            .collect();

        let mut histograms: BTreeMap<(String, Labels), (Vec<u64>, u64, u64)> = BTreeMap::new();
        for h in self.histograms.iter().chain(&other.histograms) {
            let entry = histograms
                .entry(series_key(&h.name, &h.labels))
                .or_insert_with(|| (vec![0; HISTOGRAM_BUCKETS], 0, 0));
            for (i, n) in h.buckets.iter().enumerate().take(entry.0.len()) {
                entry.0[i] += n;
            }
            entry.1 += h.sum;
            entry.2 += h.count;
        }
        self.histograms = histograms
            .into_iter()
            .map(|((name, labels), (buckets, sum, count))| HistogramSeries {
                name,
                labels,
                buckets,
                sum,
                count,
            })
            .collect();
    }

    /// Merge two snapshots (consuming form of [`merge_from`]).
    ///
    /// [`merge_from`]: MetricsSnapshot::merge_from
    pub fn merged(mut self, other: &MetricsSnapshot) -> MetricsSnapshot {
        self.merge_from(other);
        self
    }

    /// Re-aggregate after dropping the named labels: series that become
    /// identical sum together. Dropping `["server", "instance"]` turns
    /// per-instance series into a cluster rollup. Gauges are excluded —
    /// summing instantaneous values across instances reads as a lie.
    pub fn rollup_dropping(&self, labels: &[&str]) -> MetricsSnapshot {
        let stripped = MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| CounterSeries {
                    labels: drop_labels(&c.labels, labels),
                    ..c.clone()
                })
                .collect(),
            gauges: Vec::new(),
            histograms: self
                .histograms
                .iter()
                .map(|h| HistogramSeries {
                    labels: drop_labels(&h.labels, labels),
                    ..h.clone()
                })
                .collect(),
        };
        MetricsSnapshot::default().merged(&stripped)
    }

    /// Series-wise `self - baseline` for counters and histograms
    /// (saturating; gauges keep their current value). The flight recorder
    /// dumps this to show what moved since the last anomaly.
    pub fn delta_since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let base_counters: BTreeMap<(String, Labels), u64> = baseline
            .counters
            .iter()
            .map(|c| (series_key(&c.name, &c.labels), c.value))
            .collect();
        let base_hists: BTreeMap<(String, Labels), &HistogramSeries> = baseline
            .histograms
            .iter()
            .map(|h| (series_key(&h.name, &h.labels), h))
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|c| CounterSeries {
                value: c.value.saturating_sub(
                    base_counters
                        .get(&series_key(&c.name, &c.labels))
                        .copied()
                        .unwrap_or(0),
                ),
                ..c.clone()
            })
            .filter(|c| c.value > 0)
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let base = base_hists.get(&series_key(&h.name, &h.labels));
                HistogramSeries {
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .map(|(i, n)| {
                            n.saturating_sub(
                                base.and_then(|b| b.buckets.get(i)).copied().unwrap_or(0),
                            )
                        })
                        .collect(),
                    sum: h.sum.saturating_sub(base.map(|b| b.sum).unwrap_or(0)),
                    count: h.count.saturating_sub(base.map(|b| b.count).unwrap_or(0)),
                    ..h.clone()
                }
            })
            .filter(|h| h.count > 0)
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Render as Prometheus-style text: the process's one exposition
    /// renderer, which [`crate::metrics::Registry::render`] calls. Series
    /// sort by `(name, labels)`; histograms print cumulative `_bucket`
    /// lines, empty inner buckets omitted, `+Inf` always present.
    pub fn render(&self) -> String {
        use crate::metrics::Histogram;
        let mut out = String::new();
        let mut last_type: Option<String> = None;
        let mut sorted = self.clone();
        sorted
            .counters
            .sort_by_key(|a| series_key(&a.name, &a.labels));
        sorted
            .gauges
            .sort_by_key(|a| series_key(&a.name, &a.labels));
        sorted
            .histograms
            .sort_by_key(|a| series_key(&a.name, &a.labels));
        for c in &sorted.counters {
            if last_type.as_deref() != Some(c.name.as_str()) {
                out.push_str(&format!("# TYPE {} counter\n", c.name));
                last_type = Some(c.name.clone());
            }
            out.push_str(&format!(
                "{}{} {}\n",
                c.name,
                metrics::label_block(&c.labels),
                c.value
            ));
        }
        last_type = None;
        for g in &sorted.gauges {
            if last_type.as_deref() != Some(g.name.as_str()) {
                out.push_str(&format!("# TYPE {} gauge\n", g.name));
                last_type = Some(g.name.clone());
            }
            out.push_str(&format!(
                "{}{} {}\n",
                g.name,
                metrics::label_block(&g.labels),
                g.value
            ));
        }
        last_type = None;
        for h in &sorted.histograms {
            if last_type.as_deref() != Some(h.name.as_str()) {
                out.push_str(&format!("# TYPE {} histogram\n", h.name));
                last_type = Some(h.name.clone());
            }
            let mut cum = 0u64;
            for (i, n) in h.buckets.iter().enumerate() {
                cum += n;
                if *n == 0 && i + 1 != h.buckets.len() {
                    continue;
                }
                let le = match Histogram::bucket_bound(i) {
                    Some(b) => b.to_string(),
                    None => "+Inf".to_string(),
                };
                out.push_str(&format!(
                    "{}_bucket{} {cum}\n",
                    h.name,
                    metrics::label_block_with(&h.labels, "le", &le)
                ));
            }
            let block = metrics::label_block(&h.labels);
            out.push_str(&format!("{}_sum{block} {}\n", h.name, h.sum));
            out.push_str(&format!("{}_count{block} {}\n", h.name, h.count));
        }
        out
    }
}

/// One instance's health summary, served by the `Admin::Health` call:
/// liveness and saturation at a glance, including how partial its trace
/// ring is ([`trace_dropped`]).
///
/// [`trace_dropped`]: HealthSummary::trace_dropped
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthSummary {
    /// The serving instance's label (`net:<provider>`).
    pub instance: String,
    pub uptime_ms: u64,
    pub active_conns: u64,
    pub max_conns: u64,
    /// Accepted sockets queued at shard event loops, awaiting adoption.
    pub inbox_depth: u64,
    pub requests_ok: u64,
    pub requests_err: u64,
    /// Spans currently buffered in the trace ring.
    pub trace_spans: u64,
    /// Spans evicted unread — nonzero means ring dumps are partial.
    pub trace_dropped: u64,
    /// Calls waiting in admission queues, summed over event-loop shards.
    pub queue_depth: u64,
    /// Sum of per-shard effective admission bounds; `0` when the queues
    /// are unbounded (admission control off).
    pub concurrency_limit: u64,
    /// Calls shed with `Overloaded` before dispatch, over the server's
    /// life (queue-full + rate-limited + expired-in-queue).
    pub shed_total: u64,
}

impl HealthSummary {
    /// Error fraction of all dispatched requests (`0.0` when idle).
    pub fn error_rate(&self) -> f64 {
        let total = self.requests_ok + self.requests_err;
        if total == 0 {
            0.0
        } else {
            self.requests_err as f64 / total as f64
        }
    }

    /// Connection-slot headroom: `1 − active/max`, `0.0 ..= 1.0`.
    pub fn headroom(&self) -> f64 {
        if self.max_conns == 0 {
            return 1.0;
        }
        (1.0 - self.active_conns as f64 / self.max_conns as f64).clamp(0.0, 1.0)
    }

    /// Admission-queue headroom: `1 − queued/limit`, `0.0 ..= 1.0`.
    /// `1.0` when admission control is off (unbounded queues).
    pub fn admission_headroom(&self) -> f64 {
        if self.concurrency_limit == 0 {
            return 1.0;
        }
        (1.0 - self.queue_depth as f64 / self.concurrency_limit as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("reqs_total", &[("op", "lookup")]).add(7);
        r.counter("reqs_total", &[("op", "bind")]).add(3);
        r.gauge("active", &[]).set(2);
        let h = r.histogram("lat_ns", &[("op", "lookup")]);
        h.record(100);
        h.record(1000);
        h.record(100_000);
        r
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = sample_registry().snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.counter_total("reqs_total"), 10);
    }

    #[test]
    fn merge_sums_counters_and_buckets() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        let merged = a.clone().merged(&b);
        assert_eq!(merged.counter_total("reqs_total"), 20);
        let h = merged
            .histograms
            .iter()
            .find(|h| h.name == "lat_ns")
            .unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 2 * 101_100);
        let one = a.histograms.iter().find(|h| h.name == "lat_ns").unwrap();
        assert_eq!(
            h.buckets.iter().sum::<u64>(),
            2 * one.buckets.iter().sum::<u64>(),
            "bucket counts conserved"
        );
        // Same-shaped inputs: merged quantile equals the per-shard one.
        assert_eq!(h.quantile(0.5), one.quantile(0.5));
    }

    #[test]
    fn instance_labels_keep_series_apart_and_rollup_rejoins_them() {
        let a = sample_registry().snapshot().with_label("instance", "s0");
        let b = sample_registry().snapshot().with_label("instance", "s1");
        let merged = a.merged(&b);
        assert_eq!(
            merged
                .counters
                .iter()
                .filter(|c| c.name == "reqs_total")
                .count(),
            4,
            "per-instance series stay distinct"
        );
        let rollup = merged.rollup_dropping(&["instance"]);
        assert_eq!(
            rollup
                .counters
                .iter()
                .filter(|c| c.name == "reqs_total")
                .count(),
            2
        );
        assert_eq!(rollup.counter_total("reqs_total"), 20);
        assert!(rollup.gauges.is_empty(), "gauges never roll up");
    }

    #[test]
    fn delta_since_shows_only_movement() {
        let r = sample_registry();
        let base = r.snapshot();
        r.counter("reqs_total", &[("op", "lookup")]).add(5);
        r.histogram("lat_ns", &[("op", "lookup")]).record(42);
        let delta = r.snapshot().delta_since(&base);
        assert_eq!(delta.counter_total("reqs_total"), 5);
        let h = delta
            .histograms
            .iter()
            .find(|h| h.name == "lat_ns")
            .unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 42);
    }

    #[test]
    fn render_prints_the_golden_text() {
        let r = Registry::new();
        r.counter("reqs_total", &[]).add(7);
        r.gauge("active", &[("shard", "0")]).set(-2);
        let h = r.histogram("lat_ns", &[("op", "lookup")]);
        // Buckets le=4 and le=16 hold one each; le=8 between them is empty.
        h.record(3);
        h.record(10);
        let golden = "\
# TYPE reqs_total counter
reqs_total 7
# TYPE active gauge
active{shard=\"0\"} -2
# TYPE lat_ns histogram
lat_ns_bucket{le=\"4\",op=\"lookup\"} 1
lat_ns_bucket{le=\"16\",op=\"lookup\"} 2
lat_ns_bucket{le=\"+Inf\",op=\"lookup\"} 2
lat_ns_sum{op=\"lookup\"} 13
lat_ns_count{op=\"lookup\"} 2
";
        assert_eq!(r.render(), golden);
        assert_eq!(crate::expo::parse(golden).map(|s| s.len()), Ok(7));
    }

    #[test]
    fn health_summary_derived_signals() {
        let h = HealthSummary {
            active_conns: 25,
            max_conns: 100,
            requests_ok: 90,
            requests_err: 10,
            ..Default::default()
        };
        assert!((h.error_rate() - 0.1).abs() < 1e-9);
        assert!((h.headroom() - 0.75).abs() < 1e-9);
        assert_eq!(HealthSummary::default().error_rate(), 0.0);
        assert_eq!(HealthSummary::default().headroom(), 1.0);
        let text = serde_json::to_string(&h).unwrap();
        let back: HealthSummary = serde_json::from_str(&text).unwrap();
        assert_eq!(h, back);
    }
}
