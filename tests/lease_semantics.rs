//! Lease-emulation integration tests (paper §5.1, "Handling leases"):
//! the JNDI API has no expiration concept, so the Jini provider renews
//! leases of everything it bound — until unbind or process exit — while
//! foreign registrations it did not create still expire naturally.

use std::sync::Arc;

use rndi::core::context::ContextExt;
use rndi::core::prelude::*;
use rndi::providers::JiniProviderContext;
use rndi::rlus::{Entry, ManualClock, Registrar, ServiceItem, ServiceStub};

fn setup(
    lease_ms: u64,
) -> (
    Arc<ProviderPipeline<JiniProviderContext>>,
    Registrar,
    Arc<ManualClock>,
) {
    let clock = ManualClock::new();
    let registrar = Registrar::new(clock.clone(), u64::MAX / 4, 55);
    let env = Environment::new()
        .with(env_keys::JINI_STRICT_BIND, "false")
        .with(env_keys::LEASE_MS, lease_ms.to_string());
    let ctx = JiniProviderContext::new(registrar.clone(), clock.clone(), env, "lease-it");
    (ctx, registrar, clock)
}

#[test]
fn provider_keeps_many_bindings_alive_indefinitely() {
    let (ctx, registrar, clock) = setup(10_000);
    for i in 0..25 {
        ctx.bind_str(&format!("svc-{i}"), format!("v{i}")).unwrap();
    }
    assert_eq!(ctx.managed_leases(), 25);

    // 10 lease periods with regular renewal polling: nothing expires.
    for t in (2_000..=100_000).step_by(2_000) {
        clock.set(t);
        let failed = ctx.poll_leases();
        assert!(failed.is_empty(), "renewals failed at t={t}: {failed:?}");
        registrar.sweep();
    }
    assert_eq!(registrar.item_count(), 25);
    for i in 0..25 {
        assert!(ctx.lookup_str(&format!("svc-{i}")).is_ok());
    }
}

#[test]
fn foreign_registrations_still_expire() {
    let (ctx, registrar, clock) = setup(10_000);
    // A non-RNDI service registers directly with a short lease.
    registrar.register(
        ServiceItem::new(ServiceStub::new(vec!["Legacy".into()], vec![]))
            .with_entry(Entry::name("legacy-svc")),
        5_000,
    );
    ctx.bind_str("managed", "v").unwrap();

    clock.set(8_000);
    ctx.poll_leases();
    registrar.sweep();

    assert_eq!(registrar.item_count(), 1, "legacy expired, managed renewed");
    assert!(ctx.lookup_str("managed").is_ok());
}

#[test]
fn unbind_stops_renewal_half_of_lifecycle() {
    let (ctx, registrar, clock) = setup(10_000);
    ctx.bind_str("short-lived", "v").unwrap();
    ctx.unbind_str("short-lived").unwrap();
    assert_eq!(ctx.managed_leases(), 0, "lease dropped on unbind");
    assert_eq!(registrar.item_count(), 0);

    // Polling later renews nothing and fails nothing.
    clock.set(60_000);
    assert!(ctx.poll_leases().is_empty());
}

#[test]
fn process_exit_lets_everything_lapse() {
    let (ctx, registrar, clock) = setup(10_000);
    ctx.bind_str("ephemeral", "v").unwrap();
    // "until they are explicitly removed, or until the Java VM exits":
    // dropping the context = process exit; nobody renews.
    drop(ctx);
    clock.set(30_000);
    registrar.sweep();
    assert_eq!(registrar.item_count(), 0, "no renewer, no entry");
}

#[test]
fn renewal_failure_reported_after_external_removal() {
    let (ctx, registrar, clock) = setup(10_000);
    ctx.bind_str("contested", "v").unwrap();

    // Another client cancels it out from under us (re-registering with a
    // zero lease and sweeping — the expiry-emulation path).
    let env = Environment::new().with(env_keys::JINI_STRICT_BIND, "false");
    let other = JiniProviderContext::new(registrar.clone(), clock.clone(), env, "other");
    other.unbind_str("contested").unwrap();

    clock.set(6_000);
    let failed = ctx.poll_leases();
    assert_eq!(
        failed,
        vec!["contested".to_string()],
        "renewal failure surfaced"
    );
    assert_eq!(
        ctx.managed_leases(),
        0,
        "dead lease dropped from management"
    );
}

#[test]
fn the_event_subscription_outlives_the_registrar_lease() {
    // The registrar grants no lease longer than 1 s. The provider's renewal
    // pass keeps its own event subscription alive, as it keeps its bindings:
    // listeners still hear a foreign rebind, and the cache still drops what
    // it changed, long after the first subscription lease would have ended.
    let clock = ManualClock::new();
    let registrar = Registrar::new(clock.clone(), 1_000, 56);
    let relaxed = || Environment::new().with(env_keys::JINI_STRICT_BIND, "false");
    let env = relaxed().with(env_keys::CACHE_TTL_MS, "3600000");
    let a = JiniProviderContext::new(registrar.clone(), clock.clone(), env, "a");
    let heard = CollectingListener::new();
    a.add_listener(&CompositeName::empty(), heard.clone())
        .unwrap();
    a.bind_str("svc", "v1").unwrap();
    assert_eq!(a.lookup_str("svc").unwrap().as_str(), Some("v1"));
    assert_eq!(heard.drain().len(), 1, "A hears its own bind");

    for t in (200..=5_000).step_by(200) {
        clock.set(t);
        assert!(a.poll_leases().is_empty());
        registrar.sweep();
    }
    let b = JiniProviderContext::new(registrar.clone(), clock, relaxed(), "b");
    b.rebind_str("svc", "v2").unwrap();

    assert_eq!(heard.count(), 1, "A's listener heard B's rebind");
    assert_eq!(
        a.lookup_str("svc").unwrap().as_str(),
        Some("v2"),
        "A's cache was invalidated"
    );
}
