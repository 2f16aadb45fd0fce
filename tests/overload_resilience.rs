//! End-to-end overload resilience: rate limiting rejects deterministically
//! over a real socket, the shard router degrades scatters to flagged
//! partials when a leg is shed, the retry layer respects its deadline
//! budget, and the cache serves recently-expired entries through an
//! overloaded backend. A saturating swarm's goodput and sheds are held on
//! the shard itself, on a simulated clock (`tests/admission_model.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// A backend that answers every lookup.
struct LookupBackend;

impl ProviderBackend for LookupBackend {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        match op.kind {
            OpKind::Lookup => Ok(OpOutcome::Value(BoundValue::str("payload"))),
            other => Err(NamingError::unsupported(format!(
                "lookup backend {other:?}"
            ))),
        }
    }

    fn provider_id(&self) -> String {
        "lookup".to_string()
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

#[test]
fn rate_limit_sheds_deterministically() {
    let server = NetServer::with_config(
        Arc::new(LookupBackend),
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
