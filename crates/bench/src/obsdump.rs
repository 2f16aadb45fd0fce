//! `--obs-dump`: post-run observability dump for the figure binaries.
//!
//! After a figure completes, `dump()` prints the full Prometheus-style
//! exposition (`rndi_obs::metrics::render()`), per-provider pipeline latency
//! rows derived from the shared `rndi_op_duration_ns` histograms, and the
//! slowest traces in the ring with their child spans — the same data a
//! scrape of a live simnet obs endpoint would return, printed for eyeballs.

use rndi_obs::metrics::names;
use rndi_obs::SpanRecord;

/// Whether the current invocation asked for a dump, either with the
/// `--obs-dump` flag or the `RNDI_OBS_DUMP` environment variable.
pub fn requested() -> bool {
    std::env::args().any(|a| a == "--obs-dump") || std::env::var_os("RNDI_OBS_DUMP").is_some()
}

/// Print the exposition, provider latency table, and `top_n` slowest traces.
pub fn dump(top_n: usize) {
    println!("\n==== obs dump: metrics exposition ====");
    print!("{}", rndi_obs::metrics::render());
    print_provider_latency();
    print_slowest_traces(top_n);
}

/// One latency row per `(provider, op)` observed at the pipeline layer —
/// the same log2-bucket histograms the exposition exports, summarized the
/// way `print_latency` summarizes a sweep series.
fn print_provider_latency() {
    let mut rows: Vec<(String, String, std::sync::Arc<rndi_obs::Histogram>)> = Vec::new();
    for (labels, hist) in rndi_obs::metrics::histogram_family(names::OP_DURATION) {
        let get = |key: &str| {
            labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        if get("layer") == "pipeline" && hist.count() > 0 {
            rows.push((get("provider"), get("op"), hist));
        }
    }
    if rows.is_empty() {
        return;
    }
    rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    println!("\n==== obs dump: pipeline latency by provider ====");
    println!(
        "{:<12} {:<18} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "provider", "op", "count", "mean_us", "p50_us", "p95_us", "p99_us"
    );
    for (provider, op, hist) in rows {
        let us = |v: Option<f64>| v.map(|ns| ns / 1e3).unwrap_or(0.0);
        println!(
            "{:<12} {:<18} {:>10} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            provider,
            op,
            hist.count(),
            us(hist.mean()),
            us(hist.quantile(0.5)),
            us(hist.quantile(0.95)),
            us(hist.quantile(0.99)),
        );
    }
}

/// Print the `top_n` slowest root spans with their children, indented by
/// span depth, so a federated lookup reads as one tree: client root, one
/// child per mount, server spans at the leaves.
fn print_slowest_traces(top_n: usize) {
    let ring = rndi_obs::trace::ring();
    let roots = ring.slowest_roots(top_n);
    if roots.is_empty() {
        return;
    }
    println!("\n==== obs dump: {} slowest traces ====", roots.len());
    for root in &roots {
        let mut spans = ring.trace(root.trace_id);
        spans.sort_by_key(|s| (s.depth, s.span_id));
        for span in &spans {
            print_span(span);
        }
    }
}

fn print_span(span: &SpanRecord) {
    println!(
        "{:indent$}[{:016x}] {}/{} {} {} {:.3}ms",
        "",
        span.trace_id,
        span.layer,
        span.provider,
        span.op,
        span.outcome.label(),
        span.duration_ns as f64 / 1e6,
        indent = 2 * span.depth as usize,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rndi_obs::{SpanOutcome, TraceCtx};
    use std::time::Duration;

    #[test]
    fn dump_prints_without_panicking() {
        let ctx = TraceCtx::root();
        rndi_obs::trace::record(SpanRecord::new(
            &ctx,
            "pipeline",
            "obs-dump-test",
            "lookup",
            SpanOutcome::Ok,
            Duration::from_millis(3),
        ));
        rndi_obs::metrics::histogram(
            names::OP_DURATION,
            &[
                ("provider", "obs-dump-test"),
                ("op", "lookup"),
                ("layer", "pipeline"),
            ],
        )
        .record_duration(Duration::from_millis(3));
        dump(5);
    }

    #[test]
    fn requested_honors_env_var() {
        assert!(!requested());
        std::env::set_var("RNDI_OBS_DUMP", "1");
        assert!(requested());
        std::env::remove_var("RNDI_OBS_DUMP");
    }
}
