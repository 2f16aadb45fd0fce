//! Observability smoke: a small federation figure run must leave behind a
//! parseable metrics exposition covering the pipeline layer — the same
//! assertion `scripts/verify.sh` makes against the runner's full `fig8` run.

use std::time::Duration;

use rndi_bench::figures::fig8;
use rndi_bench::SweepConfig;

#[test]
fn fig8_run_emits_parseable_exposition() {
    let cfg = SweepConfig {
        clients: vec![10],
        warmup: Duration::from_millis(500),
        measure: Duration::from_secs(3),
        ..Default::default()
    };
    rndi_obs::metrics::reset();
    let series = fig8(&cfg);
    assert_eq!(series.len(), 2, "direct and federated series");

    let text = rndi_obs::metrics::render();
    let samples = rndi_obs::expo::parse(&text).expect("exposition parses");
    assert!(!samples.is_empty(), "exposition carries samples");
    // The figure's real backend traffic ran through provider pipelines, so
    // both the op counters and the latency histograms must be present.
    assert!(
        samples
            .iter()
            .any(|s| s.name == "rndi_ops_total" && s.label("layer") == Some("pipeline")),
        "pipeline op counters exposed"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "rndi_op_duration_ns_bucket"),
        "latency histogram buckets exposed"
    );
    // And the dump printer digests the same run without panicking.
    rndi_bench::obsdump::dump(3);
}
