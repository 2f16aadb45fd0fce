//! `spi::telemetry::snapshot()` against what was driven through a standard
//! pipeline, and `rndi.obs.enabled=false` against the registry: the reader
//! holds no state, so everything it reports must be derivable from — and
//! only from — what `ObsInterceptor` and the cache and retry layers counted.
//!
//! The obs registry is process-wide: every case uses its own provider label,
//! and — because two of them compare `series_count()` before and after —
//! they run one at a time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rndi_core::prelude::*;
use rndi_core::spi::telemetry::{self, PipelineTelemetry};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn series_count() -> usize {
    rndi_obs::metrics::global_registry().series_count()
}

/// Answers by the shape of the name: `mount/..` continues into a foreign
/// system, any bind is `AlreadyBound`, the first lookup of `flaky` fails.
struct Scripted {
    label: &'static str,
    calls: AtomicU64,
    flakes_left: AtomicU64,
}

impl Scripted {
    fn new(label: &'static str) -> Arc<Self> {
        Arc::new(Scripted {
            label,
            calls: AtomicU64::new(0),
            flakes_left: AtomicU64::new(1),
        })
    }
}

impl ProviderBackend for Scripted {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let flake = |n: u64| n.checked_sub(1);
        match (op.kind, op.name.head()) {
            (OpKind::Bind, _) => Err(NamingError::already_bound(op.name.to_string())),
            (OpKind::Lookup, Some("mount")) => Err(NamingError::Continue {
                resolved: BoundValue::str("elsewhere"),
                remaining: CompositeName::from("rest"),
            }),
            (OpKind::Lookup, Some("flaky"))
                if self
                    .flakes_left
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, flake)
                    .is_ok() =>
            {
                Err(NamingError::service("first attempt fails"))
            }
            (OpKind::Lookup, _) => Ok(OpOutcome::Value(BoundValue::str("v"))),
            _ => Ok(OpOutcome::Done),
        }
    }

    fn provider_id(&self) -> String {
        self.label.to_string()
    }
}

fn entry(label: &str) -> Option<PipelineTelemetry> {
    telemetry::snapshot().into_iter().find(|t| t.label == label)
}

fn row(t: &PipelineTelemetry, kind: OpKind) -> (u64, u64) {
    t.ops
        .iter()
        .find(|r| r.kind == kind)
        .map_or((0, 0), |r| (r.ops, r.errors))
}

#[test]
fn the_reader_agrees_with_what_was_driven() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const N: u64 = 7;
    const M: u64 = 3;
    const K: u64 = 2;
    let p = ProviderPipeline::standard(Scripted::new("telemetry-agrees"), &Environment::new());
    for _ in 0..N {
        p.lookup(&"a".into()).unwrap();
    }
    for _ in 0..M {
        let err = p.bind(&"a".into(), BoundValue::str("x")).unwrap_err();
        assert!(matches!(err, NamingError::AlreadyBound { .. }));
    }
    for _ in 0..K {
        assert!(p.lookup(&"mount/x".into()).unwrap_err().is_continue());
    }

    let t = entry("telemetry-agrees").expect("an instrumented pipeline has an entry");
    assert_eq!(
        row(&t, OpKind::Lookup),
        (N + K, 0),
        "a Continue is not an error"
    );
    assert_eq!(row(&t, OpKind::Bind), (M, M));
    assert_eq!(t.ops.len(), 2, "only kinds with traffic are listed");
    assert!(t.ops.iter().all(|r| !r.total.is_zero()));
    assert!(t.cache.is_none() && t.retries == 0);
}

#[test]
fn cache_and_retry_count_each_caller_visible_op_once() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let env = Environment::new()
        .with(env_keys::CACHE_TTL_MS, "60000")
        .with(env_keys::RETRY_MAX_ATTEMPTS, "3")
        .with(env_keys::RETRY_BACKOFF_MS, "0");
    let backend = Scripted::new("telemetry-layers");
    let p = ProviderPipeline::standard(backend.clone(), &env);
    // One miss then three hits; one lookup whose first attempt fails below
    // the cache (retry sits above it, so both attempts are misses).
    for _ in 0..4 {
        p.lookup(&"a".into()).unwrap();
    }
    p.lookup(&"flaky".into()).unwrap();
    assert_eq!(backend.calls.load(Ordering::Relaxed), 3);

    let t = entry("telemetry-layers").unwrap();
    assert_eq!(
        row(&t, OpKind::Lookup),
        (5, 0),
        "layer=\"backend\" series and retried attempts are not added in"
    );
    let (cache, retry) = (p.cache().unwrap(), p.retry().unwrap());
    let counted = t.cache.expect("the label carries a cache layer");
    assert_eq!(
        (counted.hits, counted.misses),
        (cache.hits(), cache.misses())
    );
    assert_eq!((counted.hits, counted.misses), (3, 3));
    assert_eq!(t.retries, retry.retries());
    assert_eq!(t.retries, 1);
}

#[test]
fn obs_off_is_off() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = series_count();
    let env = Environment::new()
        .with(env_keys::OBS_ENABLED, "false")
        .with(env_keys::CACHE_TTL_MS, "60000")
        .with(env_keys::RETRY_MAX_ATTEMPTS, "3");
    let p = ProviderPipeline::standard(Scripted::new("telemetry-off"), &env);
    p.lookup(&"a".into()).unwrap();
    p.lookup(&"a".into()).unwrap();
    assert_eq!(p.cache().unwrap().hits(), 1, "the layers still work");
    assert_eq!(series_count(), before, "nothing was instrumented");
    assert!(entry("telemetry-off").is_none());
}

#[test]
fn rebuilt_pipelines_share_their_label_s_series() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let env = Environment::new();
    let build = || ProviderPipeline::standard(Scripted::new("telemetry-rebuilt"), &env);
    build().lookup(&"a".into()).unwrap();
    let after_first = series_count();
    for _ in 0..10_000 {
        build().lookup(&"a".into()).unwrap();
    }
    assert_eq!(series_count(), after_first);
    let t = entry("telemetry-rebuilt").unwrap();
    assert_eq!(row(&t, OpKind::Lookup), (10_001, 0));
}

#[test]
fn an_unopenable_trace_file_is_counted_not_ignored() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let failed = || rndi_obs::metrics::counter_total(rndi_obs::metrics::names::SINK_ERRORS);
    let before = failed();
    let path = std::env::temp_dir().join("rndi-no-such-dir/trace.jsonl");
    let env = Environment::new().with(env_keys::OBS_TRACE_FILE, path.to_str().unwrap());
    ProviderPipeline::standard(Scripted::new("telemetry-trace-file"), &env);
    assert_eq!(failed() - before, 1, "the trace file that did not open");
}
