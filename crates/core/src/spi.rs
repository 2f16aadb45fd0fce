//! The Service Provider Interface.
//!
//! * [`UrlContextFactory`] — one per URL scheme; turns `jini://host` into a
//!   live provider context. The [`ProviderRegistry`] maps schemes to
//!   factories (JNDI's `NamingManager` + `Context.URL_PKG_PREFIXES`
//!   machinery, without the classpath scanning).
//! * [`StateFactory`] / [`ObjectFactory`] — the translation layer the paper
//!   uses to store generic name→value mappings in backends that were never
//!   designed for them (§5.1 "State and Object Factories"): a state factory
//!   converts the application object into the provider's storable form on
//!   `bind`, and an object factory reverses the transformation on `lookup`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use rndi_obs::metrics::names;
use rndi_obs::{SpanOutcome, SpanRecord, TraceCtx};

use crate::attrs::{AttrMod, Attributes};
use crate::context::{Binding, Context, DirContext, NameClassPair, SearchControls, SearchItem};
use crate::env::{keys, Environment};
use crate::error::{NamingError, Result};
use crate::event::{EventHub, ListenerHandle, NamingEvent, NamingListener};
use crate::filter::Filter;
use crate::lease::{LeaseClock, SystemLeaseClock};
use crate::name::{CompositeName, CompoundSyntax};
use crate::op::{codec, NamingOp, OpKind, OpOutcome, OpPayload, ALL_OP_KINDS};
use crate::url::RndiUrl;
use crate::value::BoundValue;

/// Creates provider contexts for one URL scheme.
pub trait UrlContextFactory: Send + Sync {
    /// The scheme this factory serves, lower-case (e.g. `"jini"`).
    fn scheme(&self) -> &str;

    /// Create a context rooted at the URL's authority. The URL's path is
    /// *not* resolved here — the federation driver does that — so factories
    /// only inspect `url.host` / `url.port`.
    fn create(&self, url: &RndiUrl, env: &Environment) -> Result<Arc<dyn DirContext>>;
}

/// Scheme → factory table.
#[derive(Default)]
pub struct ProviderRegistry {
    factories: RwLock<HashMap<String, Arc<dyn UrlContextFactory>>>,
}

impl ProviderRegistry {
    pub fn new() -> Self {
        ProviderRegistry::default()
    }

    /// Register a factory under its scheme, replacing any previous one.
    pub fn register(&self, factory: Arc<dyn UrlContextFactory>) {
        self.factories
            .write()
            .insert(factory.scheme().to_ascii_lowercase(), factory);
    }

    /// Remove the factory for `scheme`.
    pub fn unregister(&self, scheme: &str) {
        self.factories.write().remove(&scheme.to_ascii_lowercase());
    }

    /// Find the factory for `scheme` (any case; a scheme that is lower
    /// case already, as every parsed [`RndiUrl`]'s is, is looked up as it
    /// stands).
    pub fn get(&self, scheme: &str) -> Result<Arc<dyn UrlContextFactory>> {
        let factories = self.factories.read();
        let found = if scheme.bytes().any(|b| b.is_ascii_uppercase()) {
            factories.get(&scheme.to_ascii_lowercase())
        } else {
            factories.get(scheme)
        };
        found.cloned().ok_or_else(|| NamingError::NoProvider {
            scheme: scheme.to_string(),
        })
    }

    /// Registered schemes, sorted.
    pub fn schemes(&self) -> Vec<String> {
        let mut v: Vec<String> = self.factories.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Create a context for a URL by dispatching on its scheme.
    pub fn create_context(&self, url: &RndiUrl, env: &Environment) -> Result<Arc<dyn DirContext>> {
        self.get(&url.scheme)?.create(url, env)
    }
}

/// Converts application objects into a provider-storable form on bind.
pub trait StateFactory: Send + Sync {
    /// Return `Ok(Some(_))` to take responsibility for the conversion,
    /// `Ok(None)` to pass to the next factory in the chain.
    fn get_state_to_bind(
        &self,
        value: &BoundValue,
        name: &CompositeName,
        env: &Environment,
    ) -> Result<Option<BoundValue>>;
}

/// Reconstructs application objects from the stored form on lookup.
pub trait ObjectFactory: Send + Sync {
    /// Return `Ok(Some(_))` to take responsibility for the conversion,
    /// `Ok(None)` to pass to the next factory in the chain.
    fn get_object_instance(
        &self,
        stored: &BoundValue,
        name: &CompositeName,
        env: &Environment,
    ) -> Result<Option<BoundValue>>;
}

/// An ordered chain of state/object factories; the first factory that
/// accepts wins, and with no taker the value passes through unchanged.
#[derive(Default, Clone)]
pub struct FactoryChain {
    state: Vec<Arc<dyn StateFactory>>,
    object: Vec<Arc<dyn ObjectFactory>>,
}

impl FactoryChain {
    pub fn new() -> Self {
        FactoryChain::default()
    }

    pub fn add_state_factory(&mut self, f: Arc<dyn StateFactory>) {
        self.state.push(f);
    }

    pub fn add_object_factory(&mut self, f: Arc<dyn ObjectFactory>) {
        self.object.push(f);
    }

    /// Whether the chain holds no factory at all, so both directions pass
    /// every value through unchanged.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty() && self.object.is_empty()
    }

    /// Apply the state-factory chain (bind direction).
    pub fn to_stored(
        &self,
        value: BoundValue,
        name: &CompositeName,
        env: &Environment,
    ) -> Result<BoundValue> {
        for f in &self.state {
            if let Some(converted) = f.get_state_to_bind(&value, name, env)? {
                return Ok(converted);
            }
        }
        Ok(value)
    }

    /// Apply the object-factory chain (lookup direction).
    pub fn to_object(
        &self,
        stored: BoundValue,
        name: &CompositeName,
        env: &Environment,
    ) -> Result<BoundValue> {
        for f in &self.object {
            if let Some(converted) = f.get_object_instance(&stored, name, env)? {
                return Ok(converted);
            }
        }
        Ok(stored)
    }
}

// ====================================================================
// The provider pipeline: reified ops through composable interceptors.
// ====================================================================

/// How a backend stores values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFormat {
    /// The backend keeps live [`BoundValue`]s (in-memory contexts); the
    /// marshalling layer stays out of the way.
    Native,
    /// The backend stores opaque bytes; the pipeline's marshalling layer
    /// encodes bind payloads before they reach [`ProviderBackend::execute`]
    /// and decodes [`OpOutcome::Wire`] results on the way back.
    Encoded,
}

/// The slim surface a provider implements: execute one reified operation.
///
/// Everything else — the full `Context`/`DirContext` trait surface, metrics,
/// retries, caching, marshalling — is recovered generically by routing ops
/// through a [`ProviderPipeline`], so cross-cutting concerns are written
/// once instead of once per provider.
pub trait ProviderBackend: Send + Sync {
    /// Execute one operation against the backing naming service.
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome>;

    /// Identifies the provider instance (diagnostics, telemetry labels).
    fn provider_id(&self) -> String {
        "anonymous".to_string()
    }

    /// The syntax of this provider's compound name components.
    fn compound_syntax(&self) -> CompoundSyntax {
        CompoundSyntax::path()
    }

    /// The provider's event hub, if it has one. The pipeline's cache layer
    /// subscribes here so naming events invalidate stale entries.
    fn event_hub(&self) -> Option<Arc<EventHub>> {
        None
    }

    /// Whether this backend stores live values or marshalled bytes.
    fn wire_format(&self) -> WireFormat {
        WireFormat::Native
    }
}

/// The continuation an [`Interceptor`] calls to pass the op down the stack.
pub trait OpInvoker {
    fn invoke(&self, op: &NamingOp) -> Result<OpOutcome>;
}

/// Tower-style middleware around [`ProviderBackend::execute`].
pub trait Interceptor: Send + Sync {
    /// A short layer name for telemetry ("pipeline", "retry", "cache", …).
    fn layer(&self) -> &'static str;

    /// Handle `op`, typically delegating to `next.invoke(..)` zero (cache
    /// hit), one (pass-through), or several (retry) times.
    fn call(&self, op: &NamingOp, next: &dyn OpInvoker) -> Result<OpOutcome>;
}

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

// ------------------------------------------------------------- retry --

/// Whether a retry of the same op could plausibly succeed: transport and
/// service hiccups, deadline misses, and load shedding all clear on their
/// own; everything else is a semantic answer retrying cannot change.
pub fn is_transient(e: &NamingError) -> bool {
    matches!(
        e,
        NamingError::ServiceFailure { .. }
            | NamingError::Timeout { .. }
            | NamingError::Overloaded { .. }
    )
}

/// Retries transient backend failures (`ServiceFailure`/`Timeout`/
/// `Overloaded`) with exponential backoff — except that an `Overloaded`
/// rejection's own `retry_after_ms` hint (plus jitter, so a shed client
/// swarm does not re-arrive in lockstep) replaces the exponential delay.
/// Permanent errors — including federation `Continue` — propagate
/// immediately. With a deadline budget set, retrying (and the backoff
/// sleep before it) is skipped once the budget would be exhausted:
/// retrying a doomed op only amplifies overload.
pub struct RetryInterceptor {
    max_attempts: u32,
    base_backoff: Duration,
    /// Total time box across all attempts and backoffs; `None` = unbounded.
    budget: Option<Duration>,
    retries: AtomicU64,
    /// Mirror of `retries` in the process-wide metrics registry.
    metric: Option<Arc<rndi_obs::Counter>>,
    sleeper: Box<dyn Fn(Duration) + Send + Sync>,
}

impl RetryInterceptor {
    pub fn new(max_attempts: u32, base_backoff: Duration) -> Self {
        Self::with_sleeper(max_attempts, base_backoff, Box::new(std::thread::sleep))
    }

    /// Inject the backoff sleeper (tests record instead of sleeping).
    pub fn with_sleeper(
        max_attempts: u32,
        base_backoff: Duration,
        sleeper: Box<dyn Fn(Duration) + Send + Sync>,
    ) -> Self {
        RetryInterceptor {
            max_attempts: max_attempts.max(1),
            base_backoff,
            budget: None,
            retries: AtomicU64::new(0),
            metric: None,
            sleeper,
        }
    }

    /// Time box the whole retry loop: once `budget` has elapsed since the
    /// op entered this layer, no further sleep or attempt happens and the
    /// last error propagates. `0` means unbounded.
    pub fn with_deadline_budget(mut self, budget_ms: u64) -> Self {
        self.budget = (budget_ms > 0).then(|| Duration::from_millis(budget_ms));
        self
    }

    /// Also count retries into the process-wide `rndi_retries_total`
    /// family, labelled by provider.
    pub fn with_metrics(mut self, provider: &str) -> Self {
        self.metric = Some(rndi_obs::metrics::counter(
            names::RETRIES,
            &[("provider", provider)],
        ));
        self
    }

    /// Total retries performed (attempts beyond the first).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

impl Interceptor for RetryInterceptor {
    fn layer(&self) -> &'static str {
        "retry"
    }

    fn call(&self, op: &NamingOp, next: &dyn OpInvoker) -> Result<OpOutcome> {
        let started = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            let result = if attempt == 0 {
                next.invoke(op)
            } else {
                let mut annotated = op.clone();
                annotated.meta.set("retry.attempt", attempt.to_string());
                next.invoke(&annotated)
            };
            match result {
                Err(ref e) if is_transient(e) && attempt + 1 < self.max_attempts => {
                    // A shed server says how long to stay away; otherwise
                    // back off exponentially. Jitter both so a swarm of
                    // shed clients does not re-arrive in lockstep.
                    let base = match e {
                        NamingError::Overloaded { retry_after_ms } => {
                            Duration::from_millis(*retry_after_ms)
                        }
                        _ => self.base_backoff * 2u32.saturating_pow(attempt),
                    };
                    let delay = base + jitter(base);
                    if let Some(budget) = self.budget {
                        // Retrying past the op's deadline can't help the
                        // caller and keeps load on a struggling backend;
                        // skip the sleep too and fail now.
                        if started.elapsed() + delay >= budget {
                            return result;
                        }
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = &self.metric {
                        m.inc();
                    }
                    (self.sleeper)(delay);
                    attempt += 1;
                }
                other => return other,
            }
        }
    }
}

/// Up to 25% of `base`, from the clock's subsecond nanos — decorrelation,
/// not cryptography.
fn jitter(base: Duration) -> Duration {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    base.mul_f64((nanos % 1024) as f64 / 4096.0)
}

// ------------------------------------------------------------- cache --

enum CachedResult {
    Outcome(OpOutcome),
    /// Federation continuations are stable mount resolutions — caching
    /// them spares the upstream system a hop on every federated lookup.
    Continue {
        resolved: BoundValue,
        remaining: CompositeName,
    },
}

struct CacheEntry {
    result: CachedResult,
    expires_ms: u64,
    /// Recency stamp: the key's position in [`CacheMap::recency`].
    tick: u64,
}

/// Default [`CacheInterceptor`] capacity (entries), overridable via
/// [`keys::CACHE_MAX_ENTRIES`].
pub const DEFAULT_CACHE_MAX_ENTRIES: usize = 4096;

/// The map plus an LRU order over its keys. `recency` maps a monotonically
/// increasing tick to the key touched at that tick; each key owns exactly
/// one tick (its entry's `tick`), so the `recency` minimum is always the
/// least-recently-used key.
#[derive(Default)]
struct CacheMap {
    map: HashMap<String, CacheEntry>,
    recency: BTreeMap<u64, String>,
    next_tick: u64,
}

impl CacheMap {
    fn touch(&mut self, key: &str) {
        let Some(entry) = self.map.get_mut(key) else {
            return;
        };
        self.recency.remove(&entry.tick);
        entry.tick = self.next_tick;
        self.recency.insert(self.next_tick, key.to_string());
        self.next_tick += 1;
    }

    fn remove(&mut self, key: &str) -> Option<CacheEntry> {
        let entry = self.map.remove(key)?;
        self.recency.remove(&entry.tick);
        Some(entry)
    }

    /// Insert, evicting least-recently-used entries past `max_entries`
    /// (`0` = unbounded). Returns how many entries were evicted.
    fn insert(&mut self, key: String, result: CachedResult, expires_ms: u64, max: usize) -> u64 {
        self.remove(&key);
        let mut evicted = 0;
        if max > 0 {
            while self.map.len() >= max {
                let (_, lru) = self.recency.pop_first().expect("map non-empty");
                self.map.remove(&lru);
                evicted += 1;
            }
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.recency.insert(tick, key.clone());
        self.map.insert(
            key,
            CacheEntry {
                result,
                expires_ms,
                tick,
            },
        );
        evicted
    }
}

/// Read-through lookup cache with TTL expiry and a max-entries LRU bound.
/// Entries are invalidated by mutations flowing through the pipeline and
/// by the provider's own naming events (subscribe via
/// [`CacheInterceptor::listener`] or let [`ProviderPipeline::standard`]
/// wire it to the backend's hub).
pub struct CacheInterceptor {
    ttl_ms: u64,
    max_entries: usize,
    /// Grace window past expiry during which an entry may still be served
    /// if the backend reports `Overloaded`; `0` disables serve-stale.
    serve_stale_ms: u64,
    clock: Arc<dyn LeaseClock>,
    entries: Mutex<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    stale_serves: AtomicU64,
    /// Mirrors of the counters above in the process-wide metrics registry
    /// (`rndi_cache_events_total{provider,event}`), in the same order:
    /// hit, miss, invalidation, eviction, stale.
    metrics: Option<[Arc<rndi_obs::Counter>; 5]>,
}

impl CacheInterceptor {
    pub fn new(ttl_ms: u64) -> Self {
        Self::with_clock(ttl_ms, Arc::new(SystemLeaseClock::new()))
    }

    pub fn with_clock(ttl_ms: u64, clock: Arc<dyn LeaseClock>) -> Self {
        CacheInterceptor {
            ttl_ms,
            max_entries: DEFAULT_CACHE_MAX_ENTRIES,
            serve_stale_ms: 0,
            clock,
            entries: Mutex::new(CacheMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_serves: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Builder-style capacity bound; `0` means unbounded.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries;
        self
    }

    /// Builder-style serve-stale grace window: when the backend sheds a
    /// lookup with `Overloaded`, an entry expired less than this many
    /// milliseconds ago is served instead of the error. `0` (the default)
    /// propagates the rejection. Mutations still invalidate, so a stale
    /// serve is never staler than TTL + grace.
    pub fn with_serve_stale_ms(mut self, serve_stale_ms: u64) -> Self {
        self.serve_stale_ms = serve_stale_ms;
        self
    }

    /// Also count cache events into the process-wide
    /// `rndi_cache_events_total` family, labelled by provider.
    pub fn with_metrics(mut self, provider: &str) -> Self {
        let mk = |event: &str| {
            rndi_obs::metrics::counter(
                names::CACHE_EVENTS,
                &[("provider", provider), ("event", event)],
            )
        };
        self.metrics = Some([
            mk("hit"),
            mk("miss"),
            mk("invalidation"),
            mk("eviction"),
            mk("stale"),
        ]);
        self
    }

    fn metric_add(&self, slot: usize, n: u64) {
        if let Some(m) = &self.metrics {
            m[slot].add(n);
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Entries dropped by the LRU capacity bound (distinct from
    /// invalidations, which are correctness-driven).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Expired entries served in place of an `Overloaded` rejection.
    pub fn stale_serves(&self) -> u64 {
        self.stale_serves.load(Ordering::Relaxed)
    }

    /// Live entry count (diagnostics).
    pub fn len(&self) -> usize {
        self.entries.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop entries at, under, or above `name` (a changed mount affects
    /// everything resolved through it, in both directions).
    fn invalidate(&self, name: &str) {
        let mut entries = self.entries.lock();
        let doomed: Vec<String> = entries
            .map
            .keys()
            .filter(|key| {
                name.is_empty()
                    || *key == name
                    || key.starts_with(&format!("{name}/"))
                    || name.starts_with(&format!("{key}/"))
            })
            .cloned()
            .collect();
        for key in &doomed {
            entries.remove(key);
        }
        if !doomed.is_empty() {
            self.invalidations
                .fetch_add(doomed.len() as u64, Ordering::Relaxed);
            self.metric_add(2, doomed.len() as u64);
        }
    }
}

impl NamingListener for CacheInterceptor {
    fn on_event(&self, event: &NamingEvent) {
        self.invalidate(&event.name.to_string());
    }
}

impl Interceptor for CacheInterceptor {
    fn layer(&self) -> &'static str {
        "cache"
    }

    fn call(&self, op: &NamingOp, next: &dyn OpInvoker) -> Result<OpOutcome> {
        if op.kind.is_mutation() {
            let result = next.invoke(op);
            // Invalidate even on failure: a timed-out write may have
            // landed, so serving the old cached value would be wrong.
            self.invalidate(&op.name.to_string());
            if let OpPayload::NewName(new) = &op.payload {
                self.invalidate(&new.to_string());
            }
            return result;
        }
        if op.kind != OpKind::Lookup {
            return next.invoke(op);
        }

        let key = op.name.to_string();
        let now = self.clock.now_ms();
        {
            let mut entries = self.entries.lock();
            let fresh = entries
                .map
                .get(&key)
                .is_some_and(|entry| entry.expires_ms > now);
            if fresh {
                entries.touch(&key);
                let entry = entries.map.get(&key).expect("checked above");
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.metric_add(0, 1);
                return match &entry.result {
                    CachedResult::Outcome(out) => Ok(out.clone()),
                    CachedResult::Continue {
                        resolved,
                        remaining,
                    } => Err(NamingError::Continue {
                        resolved: resolved.clone(),
                        remaining: remaining.clone(),
                    }),
                };
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metric_add(1, 1);
        let result = next.invoke(op);
        if self.serve_stale_ms > 0 {
            if let Err(e) = &result {
                if e.is_overloaded() {
                    // Degrade gracefully: an entry expired less than the
                    // grace window ago beats an error while the backend
                    // sheds load. Expired entries linger in the map until
                    // overwritten or invalidated, so it is still here.
                    let mut entries = self.entries.lock();
                    let within_grace = entries.map.get(&key).is_some_and(|entry| {
                        entry.expires_ms.saturating_add(self.serve_stale_ms) > now
                    });
                    if within_grace {
                        entries.touch(&key);
                        let entry = entries.map.get(&key).expect("checked above");
                        self.stale_serves.fetch_add(1, Ordering::Relaxed);
                        self.metric_add(4, 1);
                        return match &entry.result {
                            CachedResult::Outcome(out) => Ok(out.clone()),
                            CachedResult::Continue {
                                resolved,
                                remaining,
                            } => Err(NamingError::Continue {
                                resolved: resolved.clone(),
                                remaining: remaining.clone(),
                            }),
                        };
                    }
                }
            }
        }
        let cached = match &result {
            Ok(out) => Some(CachedResult::Outcome(out.clone())),
            Err(NamingError::Continue {
                resolved,
                remaining,
            }) => Some(CachedResult::Continue {
                resolved: resolved.clone(),
                remaining: remaining.clone(),
            }),
            Err(_) => None,
        };
        if let Some(result) = cached {
            let evicted = self.entries.lock().insert(
                key,
                result,
                now.saturating_add(self.ttl_ms),
                self.max_entries,
            );
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
                self.metric_add(3, evicted);
            }
        }
        result
    }
}

// ---------------------------------------------------------- marshal --

/// The marshalling layer, lifted out of the providers: encodes bind
/// payloads into wire bytes before they reach an [`WireFormat::Encoded`]
/// backend (rejecting live contexts early, and encoding once per op rather
/// than once per retry), and decodes [`OpOutcome::Wire`] results.
pub struct MarshalInterceptor;

impl Interceptor for MarshalInterceptor {
    fn layer(&self) -> &'static str {
        "marshal"
    }

    fn call(&self, op: &NamingOp, next: &dyn OpInvoker) -> Result<OpOutcome> {
        let result = if op.kind.carries_value() {
            if let OpPayload::Value(v) = &op.payload {
                let bytes = codec::marshal(v)?;
                let mut encoded = op.clone();
                encoded.payload = OpPayload::Wire {
                    bytes,
                    class_name: v.class_name().to_string(),
                };
                next.invoke(&encoded)
            } else {
                next.invoke(op)
            }
        } else {
            next.invoke(op)
        };
        result.map(|out| match out {
            OpOutcome::Wire(bytes) => OpOutcome::Value(codec::unmarshal(&bytes)),
            other => other,
        })
    }
}

// --------------------------------------------------------------- obs --

/// The observability layer.
///
/// Each call derives a child [`TraceCtx`] from the op's annotation (or
/// mints a fresh root when the op enters untraced), re-annotates the op so
/// layers below — and, because the federation driver re-targets the same
/// op at each hop and the wire frame carries the context, federation hops
/// and remote servers — join the same trace, then records
/// one finished [`SpanRecord`] plus the `rndi_ops_total` /
/// `rndi_op_duration_ns` instruments for `(provider, op, layer)`.
///
/// [`ProviderPipeline::standard`] installs two instances: one outermost
/// (`layer="pipeline"`, the op as the caller sees it, cache hits included)
/// and one innermost (`layer="backend"`, the backend round-trip only), so
/// the gap between the two histograms is middleware + queueing time.
/// Instrument handles are resolved once per pipeline at construction; the
/// per-op cost is a trace-cell write, a few atomics, and a ring push.
pub struct ObsInterceptor {
    provider: Arc<str>,
    position: &'static str,
    durations: [Arc<rndi_obs::Histogram>; 16],
    outcomes: [[Arc<rndi_obs::Counter>; 3]; 16],
}

impl ObsInterceptor {
    pub fn new(provider: &str, position: &'static str) -> Self {
        let durations = std::array::from_fn(|i| {
            rndi_obs::metrics::histogram(
                names::OP_DURATION,
                &[
                    ("provider", provider),
                    ("op", ALL_OP_KINDS[i].label()),
                    ("layer", position),
                ],
            )
        });
        let outcomes = std::array::from_fn(|i| {
            let mk = |outcome: &str| {
                rndi_obs::metrics::counter(
                    names::OPS_TOTAL,
                    &[
                        ("provider", provider),
                        ("op", ALL_OP_KINDS[i].label()),
                        ("layer", position),
                        ("outcome", outcome),
                    ],
                )
            };
            [mk("ok"), mk("err"), mk("continue")]
        });
        // Calibrate the span clock at assembly time, not on the first op.
        rndi_obs::clock::init();
        ObsInterceptor {
            provider: Arc::from(provider),
            position,
            durations,
            outcomes,
        }
    }
}

impl Interceptor for ObsInterceptor {
    fn layer(&self) -> &'static str {
        self.position
    }

    fn call(&self, op: &NamingOp, next: &dyn OpInvoker) -> Result<OpOutcome> {
        let ctx = match op.trace_ctx() {
            Some(parent) => parent.child(),
            None => TraceCtx::root(),
        };
        // Annotate in place through the op's trace cell (restoring the
        // caller's view on exit) — re-annotation must not clone the op.
        let saved = op.trace.get();
        op.trace.set(&ctx);
        let start = rndi_obs::clock::now_ns();
        let result = next.invoke(op);
        let took = Duration::from_nanos(rndi_obs::clock::now_ns().saturating_sub(start));
        op.trace.restore(saved);
        let (slot, outcome) = match &result {
            Ok(_) => (0, SpanOutcome::Ok),
            Err(e) if e.is_continue() => (2, SpanOutcome::Continue),
            Err(_) => (1, SpanOutcome::Err),
        };
        let k = op.kind.index();
        self.durations[k].record_duration(took);
        self.outcomes[k][slot].inc();
        // Feed the flight recorder from the outermost layer only, so each
        // op counts once toward trailing-p99 and error-rate windows. The
        // unarmed path is a single relaxed atomic load.
        if self.position == "pipeline" {
            rndi_obs::recorder::observe(
                &self.provider,
                op.kind.label(),
                took.as_nanos() as u64,
                slot == 1,
            );
        }
        rndi_obs::trace::record(SpanRecord::new(
            &ctx,
            self.position,
            self.provider.clone(),
            op.kind.label(),
            outcome,
            took,
        ));
        result
    }
}

// ----------------------------------------------------------- pipeline --

/// An ordered interceptor stack in front of a [`ProviderBackend`].
///
/// The pipeline is an [`OpContext`], so it implements [`Context`] and
/// [`DirContext`] — that is how providers recover the full JNDI surface
/// from their slim backend — and `Deref`s to the backend so provider-specific methods (lease polling,
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
    /// streams finished spans to a JSONL file and
    /// [`keys::OBS_RING_CAPACITY`] resizes the process-wide span ring.
    pub fn standard(backend: Arc<B>, env: &Environment) -> Arc<Self> {
        let provider_label = backend.provider_id();
        let obs = env.get_bool(keys::OBS_ENABLED, true);
        if obs {
            if let Some(path) = env.get(keys::OBS_TRACE_FILE) {
                rndi_obs::trace::install_jsonl(path);
            }
            let ring_capacity = env.get_u64(keys::OBS_RING_CAPACITY, 0);
            if ring_capacity > 0 {
                rndi_obs::trace::ring().set_capacity(ring_capacity as usize);
            }
            let max_series = env.get_u64(keys::OBS_MAX_SERIES, 0);
            if max_series > 0 {
                rndi_obs::metrics::set_max_series(max_series as usize);
            }
            if let Some(dir) = env.get(keys::OBS_FLIGHT_DIR) {
                let defaults = rndi_obs::FlightConfig::default();
                rndi_obs::recorder::arm(rndi_obs::FlightConfig {
                    dir: dir.to_string(),
                    p99_multiple: env.get_u64(keys::OBS_FLIGHT_P99_MULT, defaults.p99_multiple),
                    min_samples: env.get_u64(keys::OBS_FLIGHT_MIN_SAMPLES, defaults.min_samples),
                    err_rate_pct: env.get_u64(keys::OBS_FLIGHT_ERR_PCT, defaults.err_rate_pct),
                    ..defaults
                });
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
        let max_entries =
            env.get_u64(keys::CACHE_MAX_ENTRIES, DEFAULT_CACHE_MAX_ENTRIES as u64) as usize;
        let cache = (ttl_ms > 0).then(|| {
            let cache = CacheInterceptor::new(ttl_ms)
                .with_max_entries(max_entries)
                .with_serve_stale_ms(env.get_u64(keys::CACHE_SERVE_STALE_MS, 0));
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
}

impl<B: ProviderBackend + ?Sized> std::ops::Deref for ProviderPipeline<B> {
    type Target = B;

    fn deref(&self) -> &B {
        &self.backend
    }
}

/// A backend that is itself the context its callers hold — a provider
/// pipeline, a federated facade. Opting in recovers the whole
/// [`Context`]/[`DirContext`] surface from [`ProviderBackend::execute`]
/// through the blanket impls below: the method → op direction, written
/// once. [`crate::op::dispatch`] is the reverse direction, and hands such a
/// context the op as it stands (via [`Context::execute_reified`]) instead of
/// unpacking it into a method call that would only rebuild it here.
pub trait OpContext: ProviderBackend {}

impl<B: ProviderBackend + ?Sized> OpContext for ProviderPipeline<B> {}

impl<T: OpContext + ?Sized> Context for T {
    fn lookup(&self, name: &CompositeName) -> Result<BoundValue> {
        self.execute(&NamingOp::lookup(name.clone()))?
            .into_value(OpKind::Lookup)
    }

    fn bind(&self, name: &CompositeName, value: BoundValue) -> Result<()> {
        self.execute(&NamingOp::bind(name.clone(), value))?
            .into_done(OpKind::Bind)
    }

    fn rebind(&self, name: &CompositeName, value: BoundValue) -> Result<()> {
        self.execute(&NamingOp::rebind(name.clone(), value))?
            .into_done(OpKind::Rebind)
    }

    fn unbind(&self, name: &CompositeName) -> Result<()> {
        self.execute(&NamingOp::unbind(name.clone()))?
            .into_done(OpKind::Unbind)
    }

    fn rename(&self, old: &CompositeName, new: &CompositeName) -> Result<()> {
        self.execute(&NamingOp::rename(old.clone(), new.clone()))?
            .into_done(OpKind::Rename)
    }

    fn list(&self, name: &CompositeName) -> Result<Vec<NameClassPair>> {
        self.execute(&NamingOp::list(name.clone()))?
            .into_names(OpKind::List)
    }

    fn list_bindings(&self, name: &CompositeName) -> Result<Vec<Binding>> {
        self.execute(&NamingOp::list_bindings(name.clone()))?
            .into_bindings(OpKind::ListBindings)
    }

    fn create_subcontext(&self, name: &CompositeName) -> Result<()> {
        self.execute(&NamingOp::create_subcontext(name.clone()))?
            .into_done(OpKind::CreateSubcontext)
    }

    fn destroy_subcontext(&self, name: &CompositeName) -> Result<()> {
        self.execute(&NamingOp::destroy_subcontext(name.clone()))?
            .into_done(OpKind::DestroySubcontext)
    }

    fn add_listener(
        &self,
        name: &CompositeName,
        listener: Arc<dyn NamingListener>,
    ) -> Result<ListenerHandle> {
        self.execute(&NamingOp::add_listener(name.clone(), listener))?
            .into_handle(OpKind::AddListener)
    }

    fn remove_listener(&self, handle: ListenerHandle) -> Result<()> {
        self.execute(&NamingOp::remove_listener(handle))?
            .into_done(OpKind::RemoveListener)
    }

    fn provider_id(&self) -> String {
        ProviderBackend::provider_id(self)
    }

    fn compound_syntax(&self) -> CompoundSyntax {
        ProviderBackend::compound_syntax(self)
    }

    fn execute_reified(&self, op: &NamingOp) -> Option<Result<OpOutcome>> {
        Some(self.execute(op))
    }
}

impl<T: OpContext + ?Sized> DirContext for T {
    fn get_attributes(&self, name: &CompositeName) -> Result<Attributes> {
        self.execute(&NamingOp::get_attributes(name.clone()))?
            .into_attrs(OpKind::GetAttributes)
    }

    fn modify_attributes(&self, name: &CompositeName, mods: &[AttrMod]) -> Result<()> {
        self.execute(&NamingOp::modify_attributes(name.clone(), mods.to_vec()))?
            .into_done(OpKind::ModifyAttributes)
    }

    fn bind_with_attrs(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
    ) -> Result<()> {
        self.execute(&NamingOp::bind_with_attrs(name.clone(), value, attrs))?
            .into_done(OpKind::BindWithAttrs)
    }

    fn rebind_with_attrs(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
    ) -> Result<()> {
        self.execute(&NamingOp::rebind_with_attrs(name.clone(), value, attrs))?
            .into_done(OpKind::RebindWithAttrs)
    }

    fn search(
        &self,
        name: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
    ) -> Result<Vec<SearchItem>> {
        self.execute(&NamingOp::search(
            name.clone(),
            filter.clone(),
            controls.clone(),
        ))?
        .into_found(OpKind::Search)
    }
}
/// Adapts any [`DirContext`] into a [`ProviderBackend`], so legacy contexts
/// (the in-memory reference provider, federated facades, test doubles) ride
/// the same reified op path as native backends.
pub struct ContextBackend<C: DirContext + 'static> {
    ctx: Arc<C>,
}

impl<C: DirContext + 'static> ContextBackend<C> {
    pub fn new(ctx: Arc<C>) -> Self {
        ContextBackend { ctx }
    }

    pub fn context(&self) -> &Arc<C> {
        &self.ctx
    }
}

impl<C: DirContext + 'static> ProviderBackend for ContextBackend<C> {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        crate::op::dispatch(self.ctx.as_ref(), op)
    }

    fn provider_id(&self) -> String {
        self.ctx.provider_id()
    }

    fn compound_syntax(&self) -> CompoundSyntax {
        self.ctx.compound_syntax()
    }
}

// ---------------------------------------------------------- telemetry --

/// Per-provider pipeline figures, read back out of the process-wide
/// `rndi_obs` registry, where [`ObsInterceptor`] and the cache and retry
/// layers count them. Nothing is measured or kept here.
///
/// The module survives only because `benchmark/src/probe.rs:573` compiles
/// against `snapshot()` / `.ops` / `.kind`; it goes with the benchmark PR of
/// ROADMAP item 2, after which every reader uses `rndi_obs::metrics`.
pub mod telemetry {
    use super::*;

    /// One op kind's traffic through a provider's pipelines, as the caller
    /// saw it (`layer="pipeline"`: a cache hit counts, a retried op counts
    /// once). Federation `Continue` results are control flow, not errors.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Binding, Context, NameClassPair};

    struct DummyCtx;
    impl Context for DummyCtx {
        fn lookup(&self, n: &CompositeName) -> Result<BoundValue> {
            Err(NamingError::not_found(n.to_string()))
        }
        fn bind(&self, _: &CompositeName, _: BoundValue) -> Result<()> {
            Ok(())
        }
        fn rebind(&self, _: &CompositeName, _: BoundValue) -> Result<()> {
            Ok(())
        }
        fn unbind(&self, _: &CompositeName) -> Result<()> {
            Ok(())
        }
        fn list(&self, _: &CompositeName) -> Result<Vec<NameClassPair>> {
            Ok(vec![])
        }
        fn list_bindings(&self, _: &CompositeName) -> Result<Vec<Binding>> {
            Ok(vec![])
        }
    }
    impl DirContext for DummyCtx {
        fn get_attributes(&self, _: &CompositeName) -> Result<crate::attrs::Attributes> {
            Ok(Default::default())
        }
        fn bind_with_attrs(
            &self,
            _: &CompositeName,
            _: BoundValue,
            _: crate::attrs::Attributes,
        ) -> Result<()> {
            Ok(())
        }
        fn rebind_with_attrs(
            &self,
            _: &CompositeName,
            _: BoundValue,
            _: crate::attrs::Attributes,
        ) -> Result<()> {
            Ok(())
        }
    }

    struct DummyFactory;
    impl UrlContextFactory for DummyFactory {
        fn scheme(&self) -> &str {
            "dummy"
        }
        fn create(&self, _: &RndiUrl, _: &Environment) -> Result<Arc<dyn DirContext>> {
            Ok(Arc::new(DummyCtx))
        }
    }

    #[test]
    fn registry_dispatch() {
        let reg = ProviderRegistry::new();
        reg.register(Arc::new(DummyFactory));
        assert_eq!(reg.schemes(), ["dummy"]);
        let url = RndiUrl::parse("DUMMY://host").unwrap();
        assert!(reg.create_context(&url, &Environment::new()).is_ok());
        assert!(matches!(
            reg.get("nope"),
            Err(NamingError::NoProvider { .. })
        ));
        reg.unregister("dummy");
        assert!(reg.get("dummy").is_err());
    }

    /// Wraps strings on the way in; unwraps on the way out — the same
    /// pattern the Jini provider uses for "fake service stubs".
    struct WrapFactory;
    impl StateFactory for WrapFactory {
        fn get_state_to_bind(
            &self,
            value: &BoundValue,
            _: &CompositeName,
            _: &Environment,
        ) -> Result<Option<BoundValue>> {
            Ok(value
                .as_str()
                .map(|s| BoundValue::Str(format!("wrapped:{s}"))))
        }
    }
    impl ObjectFactory for WrapFactory {
        fn get_object_instance(
            &self,
            stored: &BoundValue,
            _: &CompositeName,
            _: &Environment,
        ) -> Result<Option<BoundValue>> {
            Ok(stored
                .as_str()
                .and_then(|s| s.strip_prefix("wrapped:"))
                .map(BoundValue::str))
        }
    }

    #[test]
    fn factory_chain_roundtrip() {
        let mut chain = FactoryChain::new();
        chain.add_state_factory(Arc::new(WrapFactory));
        chain.add_object_factory(Arc::new(WrapFactory));
        let name = CompositeName::from("x");
        let env = Environment::new();

        let stored = chain.to_stored(BoundValue::str("v"), &name, &env).unwrap();
        assert_eq!(stored.as_str(), Some("wrapped:v"));
        let back = chain.to_object(stored, &name, &env).unwrap();
        assert_eq!(back.as_str(), Some("v"));
    }

    #[test]
    fn factory_chain_passthrough_when_no_taker() {
        let chain = FactoryChain::new();
        let name = CompositeName::from("x");
        let env = Environment::new();
        let v = chain.to_stored(BoundValue::I64(3), &name, &env).unwrap();
        assert_eq!(v, BoundValue::I64(3));
        let v = chain.to_object(BoundValue::I64(3), &name, &env).unwrap();
        assert_eq!(v, BoundValue::I64(3));
    }

    // ---------------------------------------------------- pipeline --

    use crate::lease::ManualClock;

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
