//! The interceptors of the standard stack: retry, cache, marshalling, obs.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rndi_obs::metrics::names;
use rndi_obs::{SpanOutcome, SpanRecord, TraceCtx};

#[cfg(doc)]
use super::{ProviderBackend, ProviderPipeline, WireFormat};
use crate::error::{NamingError, Result};
use crate::event::{NamingEvent, NamingListener};
use crate::lease::Clock;
use crate::name::CompositeName;
use crate::op::{codec, NamingOp, OpKind, OpOutcome, OpPayload, ALL_OP_KINDS};
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
            let result = next.invoke(op);
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

/// Default [`CacheInterceptor`] capacity (entries), overridable via
/// [`CacheInterceptor::with_max_entries`]; also `drive_op`'s
/// continuation-cache bound.
pub(crate) const DEFAULT_CACHE_MAX_ENTRIES: usize = 4096;

/// A map with a least-recently-used order over its keys: the pipeline's
/// lookup cache and `drive_op`'s continuation cache. Entries
/// sit in slots on one circular recency list through slot 0, which holds
/// none, so a hit ([`CacheMap::find`], [`CacheMap::touch`]) relinks slots
/// and allocates nothing. A bounded map takes room for all its slots at once.
pub(crate) struct CacheMap<K, V> {
    index: HashMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    free: Vec<u32>,
}

/// An entry, then its more and its less recently used neighbour.
type Slot<K, V> = (Option<(K, V)>, u32, u32);

impl<K, V> Default for CacheMap<K, V> {
    fn default() -> Self {
        CacheMap {
            index: HashMap::new(),
            slots: vec![(None, 0, 0)],
            free: Vec::new(),
        }
    }
}

impl<K: Hash + Eq + Clone, V> CacheMap<K, V> {
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The slot holding `key`; its recency is left alone.
    pub(crate) fn find(&self, key: &K) -> Option<u32> {
        self.index.get(key).copied()
    }

    pub(crate) fn value(&self, slot: u32) -> &V {
        &self.slots[slot as usize].0.as_ref().expect("a live slot").1
    }

    fn unlink(&mut self, slot: u32) {
        let (_, prev, next) = self.slots[slot as usize];
        self.slots[prev as usize].2 = next;
        self.slots[next as usize].1 = prev;
    }

    /// Mark `slot` the most recently used.
    pub(crate) fn touch(&mut self, slot: u32) {
        self.unlink(slot);
        let head = self.slots[0].2;
        (self.slots[slot as usize].1, self.slots[slot as usize].2) = (0, head);
        self.slots[head as usize].1 = slot;
        self.slots[0].2 = slot;
    }

    /// Empty `slot`, returning what it held.
    pub(crate) fn remove_slot(&mut self, slot: u32) -> V {
        self.unlink(slot);
        let (key, value) = self.slots[slot as usize].0.take().expect("a live slot");
        self.index.remove(&key);
        self.free.push(slot);
        value
    }

    /// Drop every entry `keep` refuses; returns how many went.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let doomed: Vec<u32> = (self.index.values().copied())
            .filter(|&s| matches!(&self.slots[s as usize].0, Some((k, v)) if !keep(k, v)))
            .collect();
        for &slot in &doomed {
            self.remove_slot(slot);
        }
        doomed.len()
    }

    /// Insert as the most recently used, replacing any entry under `key`
    /// and first evicting least recently used ones past `max` (`0`:
    /// unbounded). Returns how many were evicted.
    pub(crate) fn insert(&mut self, key: K, value: V, max: usize) -> u64 {
        if let Some(slot) = self.find(&key) {
            self.remove_slot(slot);
        }
        let mut evicted = 0;
        while max > 0 && self.len() >= max {
            self.remove_slot(self.slots[0].1);
            evicted += 1;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            if max > 0 && self.slots.len() == self.slots.capacity() {
                self.slots.reserve_exact(max + 1 - self.slots.len());
            }
            self.slots.push((None, 0, 0));
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 slots")
        });
        self.slots[slot as usize] = (Some((key.clone(), value)), slot, slot);
        self.index.insert(key, slot);
        self.touch(slot);
        evicted
    }
}

enum CachedResult {
    Outcome(OpOutcome),
    /// Federation continuations are stable mount resolutions — caching
    /// them spares the upstream system a hop on every federated lookup.
    Continue(NamingError),
}

impl CachedResult {
    fn replay(&self) -> Result<OpOutcome> {
        match self {
            CachedResult::Outcome(out) => Ok(out.clone()),
            CachedResult::Continue(e) => Err(e.clone()),
        }
    }
}

struct CacheEntry {
    result: CachedResult,
    expires_ms: u64,
    /// The backend's generation when the entry was filled (see
    /// [`CacheInterceptor::with_generation`]).
    generation: Option<u64>,
}

/// Read-through lookup cache with TTL expiry and a max-entries LRU bound.
/// Entries are invalidated by mutations flowing through the pipeline and
/// by the provider's own naming events (subscribe the interceptor itself, a
/// `NamingListener`, to a hub, or let [`ProviderPipeline::standard`] wire it
/// to the backend's hub); over a backend that keeps a generation, a hit is
/// served only while the generation is the one the entry was filled at.
pub struct CacheInterceptor {
    ttl_ms: u64,
    max_entries: usize,
    /// Grace window past expiry during which an entry may still be served
    /// if the backend reports `Overloaded`; `0` disables serve-stale.
    serve_stale_ms: u64,
    clock: Arc<dyn Clock>,
    generation: Option<Arc<AtomicU64>>,
    entries: Mutex<CacheMap<CompositeName, CacheEntry>>,
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
        Self::with_clock(ttl_ms, rndi_obs::clock::SystemClock::new())
    }

    pub fn with_clock(ttl_ms: u64, clock: Arc<dyn Clock>) -> Self {
        CacheInterceptor {
            ttl_ms,
            max_entries: DEFAULT_CACHE_MAX_ENTRIES,
            serve_stale_ms: 0,
            clock,
            generation: None,
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

    /// Coherence: `generation` is the backend's
    /// [`ProviderBackend::generation`], a counter it bumps on every change it
    /// applies, whoever made it. An entry is served only while the counter
    /// still reads what it read before the entry was filled.
    pub fn with_generation(mut self, generation: Arc<AtomicU64>) -> Self {
        self.generation = Some(generation);
        self
    }

    /// Also count cache events into the process-wide
    /// `rndi_cache_events_total` family, labelled by provider.
    pub fn with_metrics(mut self, provider: &str) -> Self {
        self.metrics = Some(cache_events(
            provider,
            ["hit", "miss", "invalidation", "eviction", "stale"],
        ));
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
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop entries at, under, or above `name` (a changed mount affects
    /// everything resolved through it, in both directions).
    fn invalidate(&self, name: &CompositeName) {
        let doomed = self
            .entries
            .lock()
            .retain(|key, _| !(key.starts_with(name) || name.starts_with(key)));
        if doomed > 0 {
            self.invalidations
                .fetch_add(doomed as u64, Ordering::Relaxed);
            self.metric_add(2, doomed as u64);
        }
    }

    /// The slot of `key` if its entry may be served at `now_ms` past
    /// `grace_ms` of expiry, at `generation`.
    fn servable(
        entries: &CacheMap<CompositeName, CacheEntry>,
        key: &CompositeName,
        now_ms: u64,
        grace_ms: u64,
        generation: Option<u64>,
    ) -> Option<u32> {
        entries.find(key).filter(|&slot| {
            let entry = entries.value(slot);
            entry.expires_ms.saturating_add(grace_ms) > now_ms && entry.generation == generation
        })
    }
}

/// The process-wide `rndi_cache_events_total` counters of one cache, by
/// event.
pub(crate) fn cache_events<const N: usize>(
    provider: &str,
    events: [&str; N],
) -> [Arc<rndi_obs::Counter>; N] {
    events.map(|event| {
        rndi_obs::metrics::counter(
            names::CACHE_EVENTS,
            &[("provider", provider), ("event", event)],
        )
    })
}

impl NamingListener for CacheInterceptor {
    fn on_event(&self, event: &NamingEvent) {
        self.invalidate(&event.name);
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
            self.invalidate(&op.name);
            if let OpPayload::NewName(new) = &op.payload {
                self.invalidate(new);
            }
            return result;
        }
        if op.kind != OpKind::Lookup {
            return next.invoke(op);
        }

        let key = &op.name;
        let now = self.clock.now_ms();
        // Read before the backend is: a change applied while it answers
        // leaves the entry filled at a generation already gone.
        let generation = self.generation.as_ref().map(|g| g.load(Ordering::Acquire));
        {
            let mut entries = self.entries.lock();
            if let Some(slot) = Self::servable(&entries, key, now, 0, generation) {
                entries.touch(slot);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.metric_add(0, 1);
                return entries.value(slot).result.replay();
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metric_add(1, 1);
        let result = next.invoke(op);
        if self.serve_stale_ms > 0 && result.as_ref().is_err_and(NamingError::is_overloaded) {
            // Degrade gracefully: an entry expired less than the grace
            // window ago beats an error while the backend sheds load.
            // Expired entries linger in the map until overwritten or
            // invalidated, so it is still here.
            let mut entries = self.entries.lock();
            if let Some(slot) = Self::servable(&entries, key, now, self.serve_stale_ms, generation)
            {
                entries.touch(slot);
                self.stale_serves.fetch_add(1, Ordering::Relaxed);
                self.metric_add(4, 1);
                return entries.value(slot).result.replay();
            }
        }
        let cached = match &result {
            Ok(out) => Some(CachedResult::Outcome(out.clone())),
            Err(e) if e.is_continue() => Some(CachedResult::Continue(e.clone())),
            Err(_) => None,
        };
        if let Some(result) = cached {
            let entry = CacheEntry {
                result,
                expires_ms: now.saturating_add(self.ttl_ms),
                generation,
            };
            let evicted = self
                .entries
                .lock()
                .insert(key.clone(), entry, self.max_entries);
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
/// per-op cost is two `Instant` reads, a trace-cell write, a few atomics,
/// and a push into the trace ring.
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
        let start = Instant::now();
        let result = next.invoke(op);
        let took = start.elapsed();
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
