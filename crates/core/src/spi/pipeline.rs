//! [`ProviderPipeline`]: the interceptor stack in front of a backend, and
//! the context its callers hold.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use super::interceptors::{
    CacheInterceptor, Interceptor, MarshalInterceptor, ObsInterceptor, OpInvoker, RetryInterceptor,
};
use super::{ProviderBackend, WireFormat};
#[cfg(doc)]
use crate::context::DirContext;
use crate::context::OpContext;
use crate::env::{keys, Environment};
use crate::error::Result;
use crate::event::{EventHub, ListenerHandle};
use crate::name::{CompositeName, CompoundSyntax};
use crate::op::{NamingOp, OpOutcome};

/// One frame of the interceptor stack during a call.
struct Chain<'a, B: ProviderBackend + ?Sized> {
    stack: &'a [Arc<dyn Interceptor>],
    backend: &'a B,
}

impl<B: ProviderBackend + ?Sized> OpInvoker for Chain<'_, B> {
    fn invoke(&self, op: &NamingOp) -> Result<OpOutcome> {
        match self.stack.split_first() {
            Some((head, rest)) => head.call(
                op,
                &Chain {
                    stack: rest,
                    backend: self.backend,
                },
            ),
            None => self.backend.execute(op),
        }
    }
}

/// An ordered interceptor stack in front of a [`ProviderBackend`].
///
/// The pipeline is an [`OpContext`], so it is a [`DirContext`] — that is
/// how providers recover the full JNDI surface from their slim backend —
/// and `Deref`s to the backend so provider-specific methods (lease polling,
/// event draining…) stay reachable on the wrapped value.
pub struct ProviderPipeline<B: ProviderBackend + ?Sized = dyn ProviderBackend> {
    interceptors: Vec<Arc<dyn Interceptor>>,
    cache: Option<Arc<CacheInterceptor>>,
    retry: Option<Arc<RetryInterceptor>>,
    /// The cache layer's subscription on the backend's hub, released on drop.
    invalidation: Option<(Arc<EventHub>, ListenerHandle)>,
    backend: Arc<B>,
}

impl<B: ProviderBackend + ?Sized> ProviderPipeline<B> {
    /// An empty stack: pure dispatch, no middleware.
    pub fn bare(backend: Arc<B>) -> Arc<Self> {
        Arc::new(ProviderPipeline {
            interceptors: Vec::new(),
            cache: None,
            retry: None,
            invalidation: None,
            backend,
        })
    }

    /// A custom stack, outermost interceptor first.
    pub fn with_stack(backend: Arc<B>, interceptors: Vec<Arc<dyn Interceptor>>) -> Arc<Self> {
        Arc::new(ProviderPipeline {
            interceptors,
            cache: None,
            retry: None,
            invalidation: None,
            backend,
        })
    }

    /// The standard stack: obs → retry → cache → marshalling → obs →
    /// backend.
    ///
    /// Retry engages when [`keys::RETRY_MAX_ATTEMPTS`] > 1 and the cache
    /// when [`keys::CACHE_TTL_MS`] > 0, so default environments preserve
    /// single-shot, uncached semantics. The marshalling layer joins for
    /// [`WireFormat::Encoded`] backends. The cache subscribes to the
    /// backend's event hub for invalidation, for as long as the pipeline
    /// lives.
    ///
    /// The two [`ObsInterceptor`] instances (outermost `"pipeline"`,
    /// innermost `"backend"`) are the only layers that count or time an op.
    /// They engage unless [`keys::OBS_ENABLED`] is `false`, which leaves
    /// the stack uninstrumented; [`keys::OBS_TRACE_FILE`] additionally
    /// streams finished spans to a JSONL file and [`keys::OBS_FLIGHT_DIR`]
    /// arms the flight recorder.
    pub fn standard(backend: Arc<B>, env: &Environment) -> Arc<Self> {
        let provider_label = backend.provider_id();
        let obs = env.get_bool(keys::OBS_ENABLED, true);
        if obs {
            if let Some(path) = env.get(keys::OBS_TRACE_FILE) {
                rndi_obs::trace::install_jsonl(path);
            }
            if let Some(dir) = env.get(keys::OBS_FLIGHT_DIR) {
                let defaults = rndi_obs::FlightConfig::default();
                let config = rndi_obs::FlightConfig {
                    dir: dir.to_string(),
                    min_samples: env.get_u64(keys::OBS_FLIGHT_MIN_SAMPLES, defaults.min_samples),
                    ..defaults
                };
                rndi_obs::recorder::arm(config, rndi_obs::clock::SystemClock::new());
            }
        }

        let mut stack: Vec<Arc<dyn Interceptor>> = Vec::new();
        if obs {
            stack.push(Arc::new(ObsInterceptor::new(&provider_label, "pipeline")));
        }

        let max_attempts = env.get_u64(keys::RETRY_MAX_ATTEMPTS, 1);
        let retry = (max_attempts > 1).then(|| {
            // Time-box the loop by the op's network deadline, so retries
            // never outlive the budget the caller is still waiting on.
            let retry = RetryInterceptor::new(
                max_attempts as u32,
                Duration::from_millis(env.get_u64(keys::RETRY_BACKOFF_MS, 5)),
            )
            .with_deadline_budget(env.get_u64(keys::NET_DEADLINE_MS, 0));
            Arc::new(if obs {
                retry.with_metrics(&provider_label)
            } else {
                retry
            })
        });
        if let Some(r) = &retry {
            stack.push(r.clone());
        }

        let ttl_ms = env.get_u64(keys::CACHE_TTL_MS, 0);
        let cache = (ttl_ms > 0).then(|| {
            let mut cache = CacheInterceptor::new(ttl_ms)
                .with_serve_stale_ms(env.get_u64(keys::CACHE_SERVE_STALE_MS, 0));
            if let Some(generation) = backend.generation() {
                cache = cache.with_generation(generation);
            }
            Arc::new(if obs {
                cache.with_metrics(&provider_label)
            } else {
                cache
            })
        });
        let mut invalidation = None;
        if let Some(c) = &cache {
            if let Some(hub) = backend.event_hub() {
                let handle = hub.subscribe(CompositeName::empty(), c.clone());
                invalidation = Some((hub, handle));
            }
            stack.push(c.clone());
        }

        if backend.wire_format() == WireFormat::Encoded {
            stack.push(Arc::new(MarshalInterceptor));
        }
        // A backend-position span only earns its keep when a layer that
        // can swallow or repeat backend calls sits above it — then the
        // pipeline span and the backend span genuinely measure different
        // things (a cache hit has no backend span; a retried op has
        // several). In the plain stack the two would bracket the same
        // interval, so skip the duplicate and keep the hot path at one
        // obs layer per pipeline.
        if obs && (retry.is_some() || cache.is_some()) {
            stack.push(Arc::new(ObsInterceptor::new(&provider_label, "backend")));
        }

        Arc::new(ProviderPipeline {
            interceptors: stack,
            cache,
            retry,
            invalidation,
            backend,
        })
    }

    /// Run one reified op through the stack.
    pub fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        Chain {
            stack: &self.interceptors,
            backend: self.backend.as_ref(),
        }
        .invoke(op)
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &Arc<B> {
        &self.backend
    }

    /// The cache layer, when installed.
    pub fn cache(&self) -> Option<Arc<CacheInterceptor>> {
        self.cache.clone()
    }

    /// The retry layer, when installed.
    pub fn retry(&self) -> Option<Arc<RetryInterceptor>> {
        self.retry.clone()
    }
}

/// A dropped pipeline lets go of its backend's hub: the backend may outlive
/// it (two pipelines over one backend, a factory that rebuilds its pipeline),
/// and a hub that kept the dead cache layer would keep its entries alive and
/// keep firing invalidations into them.
impl<B: ProviderBackend + ?Sized> Drop for ProviderPipeline<B> {
    fn drop(&mut self) {
        if let Some((hub, handle)) = self.invalidation.take() {
            hub.unsubscribe(handle);
        }
    }
}

/// A pipeline is itself a backend, so transports (and other hosts that
/// speak reified ops) can serve a fully-assembled interceptor stack: the
/// host dispatches into the pipeline and every layer below — cache, retry,
/// obs spans — runs server-side.
impl<B: ProviderBackend + ?Sized> ProviderBackend for ProviderPipeline<B> {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        ProviderPipeline::execute(self, op)
    }

    fn provider_id(&self) -> String {
        self.backend.provider_id()
    }

    fn compound_syntax(&self) -> CompoundSyntax {
        self.backend.compound_syntax()
    }

    fn event_hub(&self) -> Option<Arc<EventHub>> {
        self.backend.event_hub()
    }

    fn wire_format(&self) -> WireFormat {
        // The stack already marshals for encoded backends; callers above
        // the pipeline always see live values.
        WireFormat::Native
    }

    fn generation(&self) -> Option<Arc<AtomicU64>> {
        self.backend.generation()
    }
}

impl<B: ProviderBackend + ?Sized> std::ops::Deref for ProviderPipeline<B> {
    type Target = B;

    fn deref(&self) -> &B {
        &self.backend
    }
}

/// Callers hold a pipeline as their context: the client surface comes from
/// [`ProviderBackend::execute`] above.
impl<B: ProviderBackend + ?Sized> OpContext for ProviderPipeline<B> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::error::NamingError;
    use crate::lease::ManualClock;
    use crate::op::{codec, OpKind, OpPayload};
    use crate::value::BoundValue;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A backend with scriptable failures that counts `execute` calls.
    struct MockBackend {
        calls: AtomicU64,
        transient_failures: AtomicU64,
        permanent_error: bool,
        hub: Arc<EventHub>,
        wire: WireFormat,
        last_payload: Mutex<Option<OpPayload>>,
    }

    impl MockBackend {
        fn new() -> MockBackend {
            MockBackend {
                calls: AtomicU64::new(0),
                transient_failures: AtomicU64::new(0),
                permanent_error: false,
                hub: Arc::new(EventHub::new()),
                wire: WireFormat::Native,
                last_payload: Mutex::new(None),
            }
        }

        fn encoded() -> MockBackend {
            MockBackend {
                wire: WireFormat::Encoded,
                ..MockBackend::new()
            }
        }

        fn flaky(transient_failures: u64) -> MockBackend {
            MockBackend {
                transient_failures: AtomicU64::new(transient_failures),
                ..MockBackend::new()
            }
        }

        fn always_bound() -> MockBackend {
            MockBackend {
                permanent_error: true,
                ..MockBackend::new()
            }
        }

        fn calls(&self) -> u64 {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl ProviderBackend for MockBackend {
        fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if self.permanent_error {
                return Err(NamingError::already_bound(op.name.to_string()));
            }
            let flaked = self
                .transient_failures
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
            if flaked {
                return Err(NamingError::service("flaky backend"));
            }
            *self.last_payload.lock() = Some(op.payload.clone());
            match op.kind {
                OpKind::Lookup => match self.wire {
                    WireFormat::Native => Ok(OpOutcome::Value(BoundValue::str("v"))),
                    WireFormat::Encoded => {
                        Ok(OpOutcome::Wire(codec::marshal(&BoundValue::str("v"))?))
                    }
                },
                _ => Ok(OpOutcome::Done),
            }
        }

        fn event_hub(&self) -> Option<Arc<EventHub>> {
            Some(self.hub.clone())
        }

        fn wire_format(&self) -> WireFormat {
            self.wire
        }
    }

    fn name(s: &str) -> CompositeName {
        CompositeName::from(s)
    }

    fn no_sleep() -> Box<dyn Fn(Duration) + Send + Sync> {
        Box::new(|_| {})
    }

    #[test]
    fn bare_pipeline_is_pure_dispatch() {
        let backend = Arc::new(MockBackend::new());
        let p = ProviderPipeline::bare(backend.clone());
        assert!(p.cache().is_none() && p.retry().is_none());
        let v = p.lookup(&name("a")).unwrap();
        assert_eq!(v.as_str(), Some("v"));
        assert_eq!(backend.calls(), 1);
    }

    #[test]
    fn standard_stack_is_what_the_environment_asks_for() {
        fn layers(p: &ProviderPipeline<MockBackend>) -> Vec<&'static str> {
            p.interceptors.iter().map(|i| i.layer()).collect()
        }
        let backend = Arc::new(MockBackend::new());
        let p = ProviderPipeline::standard(backend.clone(), &Environment::new());
        assert_eq!(layers(&p), ["pipeline"], "one instrument, nothing else");
        assert!(p.cache().is_none(), "cache off without a TTL");
        assert!(p.retry().is_none(), "retry off at 1 attempt");
        p.lookup(&name("a")).unwrap();
        p.lookup(&name("a")).unwrap();
        assert_eq!(
            backend.calls(),
            2,
            "no cache: every lookup hits the backend"
        );

        let tuned = Environment::new()
            .with(keys::CACHE_TTL_MS, "60000")
            .with(keys::RETRY_MAX_ATTEMPTS, "3");
        let p = ProviderPipeline::standard(Arc::new(MockBackend::encoded()), &tuned);
        assert_eq!(
            layers(&p),
            ["pipeline", "retry", "cache", "marshal", "backend"]
        );
        assert!(p.cache().is_some() && p.retry().is_some());

        let p = ProviderPipeline::standard(
            Arc::new(MockBackend::encoded()),
            &tuned.clone().with(keys::OBS_ENABLED, "false"),
        );
        assert_eq!(layers(&p), ["retry", "cache", "marshal"], "off means off");
        let p = ProviderPipeline::standard(
            backend,
            &Environment::new().with(keys::OBS_ENABLED, "false"),
        );
        assert!(layers(&p).is_empty());
    }

    #[test]
    fn retry_stops_on_permanent_errors() {
        let backend = Arc::new(MockBackend::always_bound());
        let retry = Arc::new(RetryInterceptor::with_sleeper(
            5,
            Duration::ZERO,
            no_sleep(),
        ));
        let p = ProviderPipeline::with_stack(backend.clone(), vec![retry.clone()]);
        let err = p.bind(&name("a"), BoundValue::str("x")).unwrap_err();
        assert!(matches!(err, NamingError::AlreadyBound { .. }));
        assert_eq!(backend.calls(), 1, "permanent errors are not retried");
        assert_eq!(retry.retries(), 0);
    }

    #[test]
    fn retry_recovers_from_transient_failures_with_backoff() {
        let backend = Arc::new(MockBackend::flaky(2));
        let sleeps: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let recorder = sleeps.clone();
        let retry = Arc::new(RetryInterceptor::with_sleeper(
            5,
            Duration::from_millis(5),
            Box::new(move |d| recorder.lock().push(d)),
        ));
        let p = ProviderPipeline::with_stack(backend.clone(), vec![retry.clone()]);
        assert_eq!(p.lookup(&name("a")).unwrap().as_str(), Some("v"));
        assert_eq!(backend.calls(), 3);
        assert_eq!(retry.retries(), 2);
        let backoffs = sleeps.lock().clone();
        assert_eq!(backoffs.len(), 2);
        for (took, base_ms) in backoffs.iter().zip([5u64, 10]) {
            let base = Duration::from_millis(base_ms);
            assert!(
                *took >= base && *took <= base.mul_f64(1.25),
                "backoff doubles per attempt, plus up to 25% jitter: {took:?} vs {base:?}"
            );
        }
    }

    #[test]
    fn retry_exhausts_after_max_attempts() {
        let backend = Arc::new(MockBackend::flaky(100));
        let retry = Arc::new(RetryInterceptor::with_sleeper(
            3,
            Duration::ZERO,
            no_sleep(),
        ));
        let p = ProviderPipeline::with_stack(backend.clone(), vec![retry]);
        let err = p.lookup(&name("a")).unwrap_err();
        assert!(matches!(err, NamingError::ServiceFailure { .. }));
        assert_eq!(backend.calls(), 3);
    }

    #[test]
    fn cache_serves_repeated_lookups_without_backend_traffic() {
        let backend = Arc::new(MockBackend::new());
        let cache = Arc::new(CacheInterceptor::new(60_000));
        let p = ProviderPipeline::with_stack(backend.clone(), vec![cache.clone()]);
        assert_eq!(p.lookup(&name("a")).unwrap().as_str(), Some("v"));
        assert_eq!(p.lookup(&name("a")).unwrap().as_str(), Some("v"));
        assert_eq!(backend.calls(), 1, "second lookup served from cache");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn cache_capacity_evicts_least_recently_used() {
        let backend = Arc::new(MockBackend::new());
        let cache = Arc::new(CacheInterceptor::new(60_000).with_max_entries(2));
        let p = ProviderPipeline::with_stack(backend.clone(), vec![cache.clone()]);
        p.lookup(&name("a")).unwrap();
        p.lookup(&name("b")).unwrap();
        // Touch "a" so "b" becomes the LRU entry, then overflow.
        p.lookup(&name("a")).unwrap();
        p.lookup(&name("c")).unwrap();
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);

        let calls = backend.calls();
        p.lookup(&name("a")).unwrap();
        p.lookup(&name("c")).unwrap();
        assert_eq!(backend.calls(), calls, "survivors still cached");
        p.lookup(&name("b")).unwrap();
        assert_eq!(backend.calls(), calls + 1, "LRU entry was evicted");
        assert_eq!(
            cache.evictions(),
            2,
            "re-caching b evicted the next LRU entry"
        );
        assert_eq!(cache.invalidations(), 0, "evictions counted separately");
    }

    #[test]
    fn pipeline_mutations_invalidate_cached_entries() {
        let backend = Arc::new(MockBackend::new());
        let cache = Arc::new(CacheInterceptor::new(60_000));
        let p = ProviderPipeline::with_stack(backend.clone(), vec![cache.clone()]);
        p.lookup(&name("a")).unwrap();
        p.rebind(&name("a"), BoundValue::str("new")).unwrap();
        p.lookup(&name("a")).unwrap();
        assert_eq!(backend.calls(), 3, "rebind forced a fresh backend lookup");
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn backend_events_invalidate_cached_entries() {
        // The standard stack subscribes the cache to the backend's hub, so
        // out-of-band changes (another client's rebind/unbind observed via
        // naming events) evict stale entries.
        let backend = Arc::new(MockBackend::new());
        let env = Environment::new().with(keys::CACHE_TTL_MS, "60000");
        let p = ProviderPipeline::standard(backend.clone(), &env);
        let cache = p.cache().expect("cache enabled by TTL");

        p.lookup(&name("a")).unwrap();
        backend
            .hub
            .fire_changed(name("a"), None, BoundValue::str("rebound elsewhere"));
        p.lookup(&name("a")).unwrap();
        assert_eq!(backend.calls(), 2, "rebind event evicted the entry");

        p.lookup(&name("a")).unwrap();
        assert_eq!(backend.calls(), 2, "entry re-cached after the miss");
        backend.hub.fire_removed(name("a"), None);
        p.lookup(&name("a")).unwrap();
        assert_eq!(backend.calls(), 3, "unbind event evicted the entry");
        assert_eq!(cache.invalidations(), 2);
    }

    #[test]
    fn dropped_pipeline_releases_the_hub_and_its_cache() {
        // Two pipelines over one backend (a served one and a local one):
        // dropping one must leave nothing of it behind.
        let backend = Arc::new(MockBackend::new());
        let env = Environment::new().with(keys::CACHE_TTL_MS, "60000");
        let kept = ProviderPipeline::standard(backend.clone(), &env);
        let dropped = ProviderPipeline::standard(backend.clone(), &env);
        assert_eq!(backend.hub.len(), 2);
        dropped.lookup(&name("a")).unwrap();
        let cache = dropped.cache().expect("cache enabled by TTL");
        drop(dropped);
        assert_eq!(backend.hub.len(), 1, "only the live pipeline listens");
        assert_eq!(Arc::strong_count(&cache), 1, "nothing else holds the cache");

        kept.lookup(&name("a")).unwrap();
        backend.hub.fire_removed(name("a"), None);
        assert_eq!(kept.cache().unwrap().invalidations(), 1);
        assert_eq!(cache.invalidations(), 0, "no events reach the dead layer");
    }

    #[test]
    fn cache_entries_expire_after_ttl() {
        let clock = ManualClock::new();
        let backend = Arc::new(MockBackend::new());
        let cache = Arc::new(CacheInterceptor::with_clock(1_000, clock.clone()));
        let p = ProviderPipeline::with_stack(backend.clone(), vec![cache]);
        p.lookup(&name("a")).unwrap();
        clock.advance(999);
        p.lookup(&name("a")).unwrap();
        assert_eq!(backend.calls(), 1, "entry still fresh at TTL-1");
        clock.advance(2);
        p.lookup(&name("a")).unwrap();
        assert_eq!(backend.calls(), 2, "entry expired past the TTL");
    }

    #[test]
    fn marshal_encodes_payloads_for_wire_backends() {
        let backend = Arc::new(MockBackend::encoded());
        let p = ProviderPipeline::standard(backend.clone(), &Environment::new());
        p.bind(&name("a"), BoundValue::str("payload")).unwrap();
        match backend.last_payload.lock().clone() {
            Some(OpPayload::Wire { bytes, class_name }) => {
                assert_eq!(class_name, "string");
                assert_eq!(codec::unmarshal(&bytes).as_str(), Some("payload"));
            }
            _ => panic!("backend should have seen a wire payload"),
        }
        // Wire results decode back into live values on the way out.
        assert_eq!(p.lookup(&name("a")).unwrap().as_str(), Some("v"));
    }

    #[test]
    fn marshal_rejects_live_contexts_before_the_backend() {
        let backend = Arc::new(MockBackend::encoded());
        let p = ProviderPipeline::standard(backend.clone(), &Environment::new());
        let err = p
            .bind(
                &name("a"),
                BoundValue::Context(Arc::new(crate::mem::MemContext::new())),
            )
            .unwrap_err();
        assert!(matches!(err, NamingError::NotSupported { .. }));
        assert_eq!(backend.calls(), 0, "rejected before reaching the backend");
    }
}
