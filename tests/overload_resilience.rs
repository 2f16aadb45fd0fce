//! End-to-end overload resilience: a saturating swarm against a bounded
//! v2 server keeps goodput near peak, sheds with the *retryable*
//! `Overloaded` (never `Timeout`), rate limiting rejects deterministically
//! over both protocol versions, the shard router degrades scatters to
//! flagged partials when a leg is shed, the retry layer respects its
//! deadline budget, and the cache serves recently-expired entries through
//! an overloaded backend.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rndi::core::context::ContextExt;
use rndi::core::env::{keys, Environment};
use rndi::core::error::{NamingError, Result};
use rndi::core::lease::ManualClock;
use rndi::core::mem::MemContext;
use rndi::core::name::{CompositeName, CompoundSyntax};
use rndi::core::op::{NamingOp, OpKind, OpOutcome};
use rndi::core::spi::{
    is_transient, CacheInterceptor, ProviderBackend, ProviderPipeline, RetryInterceptor,
};
use rndi::core::value::BoundValue;
use rndi::net::{NetClient, NetServer, ServerConfig};
use rndi::shard::{ShardInfo, ShardMap, ShardRouter};

/// A lookup backend with a fixed ≈2 ms service time — slow enough that a
/// couple dozen closed-loop clients swamp one event-loop shard.
struct SlowBackend;

impl ProviderBackend for SlowBackend {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        match op.kind {
            OpKind::Lookup => {
                std::thread::sleep(Duration::from_millis(2));
                Ok(OpOutcome::Value(BoundValue::str("payload")))
            }
            other => Err(NamingError::unsupported(format!("slow backend {other:?}"))),
        }
    }

    fn provider_id(&self) -> String {
        "slow".to_string()
    }

    fn compound_syntax(&self) -> CompoundSyntax {
        CompoundSyntax::path()
    }
}

/// A backend that always sheds with a fixed retry-after hint.
struct SheddingBackend {
    retry_after_ms: u64,
}

impl ProviderBackend for SheddingBackend {
    fn execute(&self, _op: &NamingOp) -> Result<OpOutcome> {
        Err(NamingError::overloaded(self.retry_after_ms))
    }

    fn provider_id(&self) -> String {
        "shedding".to_string()
    }

    fn compound_syntax(&self) -> CompoundSyntax {
        CompoundSyntax::path()
    }
}

#[derive(Default)]
struct SwarmTally {
    in_budget: u64,
    late: u64,
    shed: u64,
    timeout: u64,
}

/// Drive `clients` closed-loop threads for `window` after `warmup`;
/// every op is classified client-side against a 250 ms budget.
fn swarm(addr: &str, clients: usize, warmup: Duration, window: Duration) -> SwarmTally {
    let env = Environment::new();
    let measuring = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let client = NetClient::new(addr.to_string(), &env).expect("client dials");
            let measuring = measuring.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let op = NamingOp::lookup("svc".into());
                let mut tally = SwarmTally::default();
                while !stop.load(Ordering::Relaxed) {
                    let started = Instant::now();
                    let result = client.execute(&op);
                    if !measuring.load(Ordering::Relaxed) {
                        continue;
                    }
                    match result {
                        Ok(_) if started.elapsed() <= Duration::from_millis(250) => {
                            tally.in_budget += 1
                        }
                        Ok(_) => tally.late += 1,
                        Err(e) if e.is_overloaded() => {
                            assert!(is_transient(&e), "shed ops must be retryable");
                            tally.shed += 1;
                        }
                        Err(NamingError::Timeout { .. }) => tally.timeout += 1,
                        Err(e) => panic!("unexpected swarm error: {e:?}"),
                    }
                }
                tally
            })
        })
        .collect();
    std::thread::sleep(warmup);
    measuring.store(true, Ordering::Relaxed);
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut total = SwarmTally::default();
    for w in workers {
        let t = w.join().expect("swarm worker");
        total.in_budget += t.in_budget;
        total.late += t.late;
        total.shed += t.shed;
        total.timeout += t.timeout;
    }
    total
}

#[test]
fn saturating_swarm_holds_goodput_and_sheds_overloaded_not_timeout() {
    let server = NetServer::with_config(
        Arc::new(SlowBackend),
        ServerConfig {
            max_conns: 128,
            shards: 1,
            queue_depth: 4,
            adaptive: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr().to_string();

    let window = Duration::from_millis(900);
    let light = swarm(&addr, 2, Duration::from_millis(200), window);
    let heavy = swarm(&addr, 24, Duration::from_millis(300), window);

    // The overload plane is observable over the admin vocabulary: shed
    // totals and the admission gauges cross the wire in both the health
    // summary and the metrics snapshot.
    let admin = NetClient::new(addr.clone(), &Environment::new()).expect("admin client dials");
    let health = admin.scrape_health().expect("health scrape");
    assert!(health.shed_total > 0, "health reports sheds");
    assert!(health.concurrency_limit > 0, "admission limit exported");
    assert!((0.0..=1.0).contains(&health.admission_headroom()));
    let snap = admin.scrape_metrics().expect("metrics scrape");
    assert!(snap.counter_total(rndi::obs::metrics::names::NET_SHED) > 0);
    let exposition = snap.render();
    assert!(exposition.contains(rndi::obs::metrics::names::NET_QUEUE_DEPTH));
    assert!(exposition.contains(rndi::obs::metrics::names::NET_CONCURRENCY_LIMIT));
    server.shutdown();

    let light_goodput = light.in_budget as f64 / window.as_secs_f64();
    let heavy_goodput = heavy.in_budget as f64 / window.as_secs_f64();
    let peak = light_goodput.max(heavy_goodput);
    assert!(
        heavy_goodput >= 0.8 * peak,
        "goodput held past saturation: {heavy_goodput:.0}/s vs peak {peak:.0}/s"
    );
    assert!(
        heavy.shed > 0,
        "a 12× overload against a bounded queue must shed"
    );
    assert_eq!(
        heavy.timeout, 0,
        "shedding arrives as Overloaded, never Timeout"
    );
    assert_eq!(light.shed, 0, "no shedding below the knee");
}

#[test]
fn rate_limit_sheds_deterministically() {
    let server = NetServer::with_config(
        Arc::new(SlowBackend),
        ServerConfig {
            rate_ops: 1,
            rate_burst: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr().to_string();

    // One pooled connection, so both calls share one token bucket.
    let env = Environment::new().with(keys::NET_CLIENT_POOL_SIZE, "1");
    let client = NetClient::new(addr, &env).expect("client dials");
    let op = NamingOp::lookup("svc".into());
    client
        .execute(&op)
        .unwrap_or_else(|e| panic!("first call spends the burst token: {e:?}"));
    let err = client
        .execute(&op)
        .expect_err("second immediate call must be rate-shed");
    match err {
        NamingError::Overloaded { retry_after_ms } => {
            assert!(
                (1..=10_000).contains(&retry_after_ms),
                "retry-after hint {retry_after_ms} ms"
            );
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(is_transient(&NamingError::overloaded(1)));
    server.shutdown();
}

#[test]
fn scatter_degrades_to_flagged_partial_when_a_leg_is_shed() {
    let env = Environment::new();
    let map = ShardMap::new(vec![
        ShardInfo::new("a", "inproc-a"),
        ShardInfo::new("b", "inproc-b"),
    ])
    .expect("valid map");

    // Shard a answers; shard b sheds everything.
    let store = MemContext::new();
    store.bind_str("alpha", "1").unwrap();
    store.bind_str("beta", "2").unwrap();
    let healthy = Arc::new(store) as Arc<dyn ProviderBackend>;
    let shedding = Arc::new(SheddingBackend { retry_after_ms: 37 }) as Arc<dyn ProviderBackend>;
    let router = ShardRouter::new(map.clone(), vec![healthy, shedding], &env).expect("router");

    let listed = router
        .execute(&NamingOp::list(CompositeName::empty()))
        .expect("partial merge beats total failure");
    let names: Vec<String> = match listed {
        OpOutcome::Names(pairs) => pairs.into_iter().map(|p| p.name).collect(),
        other => panic!("expected names, got {other:?}"),
    };
    assert_eq!(names, vec!["alpha".to_string(), "beta".to_string()]);
    assert_eq!(router.partial_scatters(), 1, "partial was flagged");

    // Every leg shed: the scatter propagates Overloaded with the most
    // pessimistic hint, not some arbitrary first error.
    let all_shed = ShardRouter::new(
        map,
        vec![
            Arc::new(SheddingBackend { retry_after_ms: 37 }) as Arc<dyn ProviderBackend>,
            Arc::new(SheddingBackend { retry_after_ms: 99 }) as Arc<dyn ProviderBackend>,
        ],
        &env,
    )
    .expect("router");
    match all_shed.execute(&NamingOp::list(CompositeName::empty())) {
        Err(NamingError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 99),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(
        all_shed.partial_scatters(),
        0,
        "total failure is no partial"
    );
}

#[test]
fn retry_honors_hint_but_gives_up_inside_deadline_budget() {
    let backend = Arc::new(SheddingBackend {
        retry_after_ms: 500,
    });
    let op = NamingOp::lookup("svc".into());

    // Budget shorter than the server's hint: fail now, sleep never.
    let slept = Arc::new(AtomicU64::new(0));
    let s = slept.clone();
    let retry = Arc::new(
        RetryInterceptor::with_sleeper(
            4,
            Duration::from_millis(5),
            Box::new(move |d| {
                s.fetch_add(d.as_millis() as u64, Ordering::Relaxed);
            }),
        )
        .with_deadline_budget(100),
    );
    let p = ProviderPipeline::with_stack(backend.clone(), vec![retry.clone()]);
    let err = p.execute(&op).expect_err("backend always sheds");
    assert!(err.is_overloaded());
    assert_eq!(retry.retries(), 0, "no retry can fit inside the budget");
    assert_eq!(slept.load(Ordering::Relaxed), 0, "gave up without sleeping");

    // Unbounded budget: the backoff honors the server's retry-after hint
    // (base 500 ms, plus up to 25% jitter) instead of the 5 ms schedule.
    let slept = Arc::new(AtomicU64::new(0));
    let s = slept.clone();
    let retry = Arc::new(RetryInterceptor::with_sleeper(
        2,
        Duration::from_millis(5),
        Box::new(move |d| {
            s.fetch_add(d.as_millis() as u64, Ordering::Relaxed);
        }),
    ));
    let p = ProviderPipeline::with_stack(backend, vec![retry.clone()]);
    p.execute(&op).expect_err("backend always sheds");
    assert_eq!(retry.retries(), 1);
    let total = slept.load(Ordering::Relaxed);
    assert!(
        (500..=625).contains(&total),
        "backoff follows the hint, got {total} ms"
    );
}

#[test]
fn cache_serves_stale_entries_while_the_backend_sheds() {
    /// Healthy until flipped, then sheds every op.
    struct FlippableBackend {
        overloaded: AtomicBool,
    }
    impl ProviderBackend for FlippableBackend {
        fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
            if self.overloaded.load(Ordering::Relaxed) {
                return Err(NamingError::overloaded(42));
            }
            match op.kind {
                OpKind::Lookup => Ok(OpOutcome::Value(BoundValue::str("fresh"))),
                other => Err(NamingError::unsupported(format!("{other:?}"))),
            }
        }
        fn provider_id(&self) -> String {
            "flippable".to_string()
        }
        fn compound_syntax(&self) -> CompoundSyntax {
            CompoundSyntax::path()
        }
    }

    let backend = Arc::new(FlippableBackend {
        overloaded: AtomicBool::new(false),
    });
    let clock = ManualClock::new();
    let cache = Arc::new(CacheInterceptor::with_clock(100, clock.clone()).with_serve_stale_ms(500));
    let p = ProviderPipeline::with_stack(backend.clone(), vec![cache.clone()]);
    let op = NamingOp::lookup("svc".into());

    let expect_fresh = |context: &str| match p.execute(&op) {
        Ok(OpOutcome::Value(v)) => assert_eq!(v.as_str(), Some("fresh"), "{context}"),
        other => panic!("{context}: got {other:?}"),
    };

    // Prime the cache, then let the entry expire and the backend melt.
    expect_fresh("primed lookup");
    clock.advance(150);
    backend.overloaded.store(true, Ordering::Relaxed);

    // Expired 50 ms ago, grace is 500 ms: the stale value beats the error.
    expect_fresh("stale entry served through overload");
    assert_eq!(cache.stale_serves(), 1);

    // Past the grace window the rejection propagates.
    clock.set(700);
    let err = p.execute(&op).expect_err("grace exhausted");
    assert!(err.is_overloaded());
    assert_eq!(cache.stale_serves(), 1, "no stale serve past the grace");
}
