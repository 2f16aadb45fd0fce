//! Per-provider pipeline figures, read back out of the process-wide
//! `rndi_obs` registry, where [`ObsInterceptor`] and the cache and retry
//! layers count them. Nothing is measured or kept here.
//!
//! The module survives only because `benchmark/src/probe.rs:573` compiles
//! against `snapshot()` / `.ops` / `.kind`; it goes with the benchmark PR of
//! ROADMAP item 2, after which every reader uses `rndi_obs::metrics`.

use std::collections::BTreeMap;
use std::time::Duration;

use rndi_obs::metrics::names;

#[cfg(doc)]
use super::ObsInterceptor;
use crate::op::{OpKind, ALL_OP_KINDS};

/// One op kind's traffic through a provider's pipelines, as the caller
/// saw it (`layer="pipeline"`: a cache hit counts, a retried op counts
/// once). Federation `Continue` results are control flow, not errors.
// Public, as are the two types below, as part of what `snapshot` returns.
#[derive(Clone, Copy, Debug)]
pub struct OpKindStat {
    pub kind: OpKind,
    pub ops: u64,
    pub errors: u64,
    pub total: Duration,
}

/// Cache layer counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub evictions: u64,
}

/// Everything counted under one provider label.
#[derive(Clone, Debug)]
pub struct PipelineTelemetry {
    pub label: String,
    /// Kinds with traffic, in [`ALL_OP_KINDS`] order.
    pub ops: Vec<OpKindStat>,
    /// Present when a pipeline under this label carries a cache layer.
    pub cache: Option<CacheCounters>,
    pub retries: u64,
}

/// One entry per provider label with an instrumented pipeline, sorted.
pub fn snapshot() -> Vec<PipelineTelemetry> {
    fn label<'a>(labels: &'a rndi_obs::metrics::Labels, key: &str) -> &'a str {
        labels
            .iter()
            .find(|(k, _)| k == key)
            .map_or("", |(_, v)| v.as_str())
    }
    /// The row index of a series counted at the pipeline layer.
    fn pipeline_kind(labels: &rndi_obs::metrics::Labels) -> Option<usize> {
        if label(labels, "layer") != "pipeline" {
            return None;
        }
        ALL_OP_KINDS
            .iter()
            .position(|k| k.label() == label(labels, "op"))
    }

    let metrics = rndi_obs::metrics::snapshot();
    let mut by_label: BTreeMap<&str, PipelineTelemetry> = BTreeMap::new();
    for c in metrics
        .counters
        .iter()
        .filter(|c| c.name == names::OPS_TOTAL)
    {
        let Some(kind) = pipeline_kind(&c.labels) else {
            continue;
        };
        let provider = label(&c.labels, "provider");
        let entry = by_label
            .entry(provider)
            .or_insert_with(|| PipelineTelemetry {
                label: provider.to_string(),
                ops: ALL_OP_KINDS
                    .iter()
                    .map(|&kind| OpKindStat {
                        kind,
                        ops: 0,
                        errors: 0,
                        total: Duration::ZERO,
                    })
                    .collect(),
                cache: None,
                retries: 0,
            });
        entry.ops[kind].ops += c.value;
        if label(&c.labels, "outcome") == "err" {
            entry.ops[kind].errors += c.value;
        }
    }
    for h in &metrics.histograms {
        if h.name != names::OP_DURATION {
            continue;
        }
        let entry = by_label.get_mut(label(&h.labels, "provider"));
        if let (Some(kind), Some(entry)) = (pipeline_kind(&h.labels), entry) {
            entry.ops[kind].total += Duration::from_nanos(h.sum);
        }
    }
    // Other owners count into these two families as well (the DNS
    // resolver's cache): only a pipeline's label has an entry to add to.
    for c in &metrics.counters {
        let Some(entry) = by_label.get_mut(label(&c.labels, "provider")) else {
            continue;
        };
        if c.name == names::RETRIES {
            entry.retries += c.value;
        } else if c.name == names::CACHE_EVENTS {
            let cache = entry.cache.get_or_insert_with(CacheCounters::default);
            match label(&c.labels, "event") {
                "hit" => cache.hits += c.value,
                "miss" => cache.misses += c.value,
                "invalidation" => cache.invalidations += c.value,
                "eviction" => cache.evictions += c.value,
                _ => {}
            }
        }
    }
    by_label
        .into_values()
        .map(|mut entry| {
            entry.ops.retain(|row| row.ops > 0);
            entry
        })
        .collect()
}
