//! What a Jini `bind` costs, as budgets: the heap allocations of one warmed
//! strict bind, its unbind and one relaxed bind, through the same URL path
//! the repo benchmark's `fed_resolve` takes (`jini://lus/j<slot>` on a
//! registrar holding its 64 resident services), and the registrar calls a
//! bind makes: the paper's price (§5.1) is in calls, so a call must cost no
//! more than the read or the write of one item. Lives in its own test
//! binary because `common` installs a counting `#[global_allocator]`.

use std::sync::Arc;
use std::time::Instant;

use rndi::core::prelude::*;
use rndi::providers::common::MsClock;
use rndi::providers::JiniFactory;
use rndi::rlus::discovery::LookupLocator;
use rndi::rlus::registrar::RegistrarStats;
use rndi::rlus::{DiscoveryRealm, ManualClock, Registrar};

mod common;
use common::{count_during, fill_trace_ring};

/// Services resident on the registrar, as in `fed_resolve`.
const RESIDENTS: u32 = 64;
/// Slots a bind cycles through, as `fed_resolve`'s 16.
const SLOTS: u32 = 16;

fn url(slot: u32) -> String {
    format!("jini://lus/j{slot:02}")
}

/// A registrar holding the residents, reached through a discovery realm
/// and the provider's URL factory, in strict or relaxed bind mode, with
/// every slot bound and unbound often enough that map capacities and
/// instrument handles are in place, and the trace ring full: the two tests
/// of this binary run in parallel, and one's spans would otherwise move a
/// doubling of the ring into the other's measured bind.
fn world(strict: bool) -> (InitialContext, Registrar) {
    let clock = ManualClock::new();
    let registrar = Registrar::new(clock.clone(), u64::MAX / 4, 5);
    let discovery = DiscoveryRealm::new();
    discovery.announce(
        LookupLocator::new("lus", 4160),
        &["bench"],
        registrar.clone(),
    );
    let registry = Arc::new(ProviderRegistry::new());
    registry.register(JiniFactory::new(discovery, clock as Arc<dyn MsClock>));
    let env = Environment::new().with(
        env_keys::JINI_STRICT_BIND,
        if strict { "true" } else { "false" },
    );
    let ic = InitialContext::new(registry, env).unwrap();
    for resident in 0..RESIDENTS {
        ic.bind(&format!("jini://lus/resident{resident:02}"), "resident")
            .unwrap();
    }
    for _ in 0..4 {
        for slot in 0..SLOTS {
            ic.bind(&url(slot), "lease-me").unwrap();
            ic.unbind(&url(slot)).unwrap();
        }
    }
    fill_trace_ring();
    (ic, registrar)
}

/// The most allocations one bind and one unbind made over every slot, and
/// the registrar calls each bind made (every bind makes the same number).
struct PerBind {
    bind: u64,
    unbind: u64,
    calls: RegistrarStats,
}

fn measured(strict: bool) -> PerBind {
    let (ic, registrar) = world(strict);
    let mut per = PerBind {
        bind: 0,
        unbind: 0,
        calls: RegistrarStats::default(),
    };
    for slot in 0..SLOTS {
        let u = url(slot);
        let before = registrar.stats();
        let ((), bind) = count_during(|| ic.bind(&u, "lease-me").unwrap());
        let after = registrar.stats();
        let ((), unbind) = count_during(|| ic.unbind(&u).unwrap());
        per.bind = per.bind.max(bind.calls);
        per.unbind = per.unbind.max(unbind.calls);
        let calls = RegistrarStats {
            lookups: after.lookups - before.lookups,
            registrations: after.registrations - before.registrations,
            ..Default::default()
        };
        assert!(
            slot == 0 || calls == per.calls,
            "slot {slot}: {calls:?}, slot 0: {:?}",
            per.calls
        );
        per.calls = calls;
    }
    per
}

/// Microseconds per bind+unbind pair, over `pairs` pairs after the warm-up.
fn pair_us(strict: bool, pairs: u32) -> f64 {
    let (ic, _) = world(strict);
    let start = Instant::now();
    for i in 0..pairs {
        let u = url(i % SLOTS);
        ic.bind(&u, "lease-me").unwrap();
        ic.unbind(&u).unwrap();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(pairs)
}

#[test]
fn a_jini_bind_stays_inside_its_allocation_budget() {
    // As measured: the lock's ten register calls allocate nothing, so a
    // strict bind costs what a relaxed one does. Cloning the stored item on
    // every registrar read and every event, owned posting keys on every
    // index probe and write, and a key and a value built for every lock
    // register access, these measured 375 / 18 / 68.
    const STRICT_BIND_BUDGET: u64 = 44;
    const UNBIND_BUDGET: u64 = 12;
    const RELAXED_BIND_BUDGET: u64 = 44;

    let strict = measured(true);
    let relaxed = measured(false);
    println!(
        "allocations: strict bind {} (budget {STRICT_BIND_BUDGET}), unbind {} \
         (budget {UNBIND_BUDGET}), relaxed bind {} (budget {RELAXED_BIND_BUDGET})",
        strict.bind, strict.unbind, relaxed.bind
    );
    println!(
        "ledger: jini.allocs_per_strict_bind {} {STRICT_BIND_BUDGET}",
        strict.bind
    );
    assert!(
        strict.bind <= STRICT_BIND_BUDGET,
        "a strict bind made {} allocations, budget {STRICT_BIND_BUDGET}",
        strict.bind
    );
    assert!(
        strict.unbind <= UNBIND_BUDGET,
        "an unbind made {} allocations, budget {UNBIND_BUDGET}",
        strict.unbind
    );
    assert!(
        relaxed.bind <= RELAXED_BIND_BUDGET,
        "a relaxed bind made {} allocations, budget {RELAXED_BIND_BUDGET}",
        relaxed.bind
    );
}

#[test]
fn a_strict_bind_makes_the_papers_twelve_registrar_calls() {
    // Eisenberg–McGuire uncontended: 5 register reads and 5 writes, then
    // the existence check (a lookup) and the bind's own register.
    let strict = measured(true).calls;
    let relaxed = measured(false).calls;
    let total = strict.lookups + strict.registrations;
    println!("ledger: jini.registrar_ops_per_strict_bind {total} 12");
    assert_eq!(
        (strict.lookups, strict.registrations),
        (6, 6),
        "strict bind registrar calls"
    );
    assert_eq!(
        (relaxed.lookups, relaxed.registrations),
        (1, 1),
        "relaxed bind registrar calls"
    );

    // Reported, not asserted: what a bind+unbind pair takes on this build.
    let pairs = 2_000;
    let (strict_us, relaxed_us) = (pair_us(true, pairs), pair_us(false, pairs));
    println!(
        "bind+unbind: strict {strict_us:.1} us, relaxed {relaxed_us:.1} us \
         ({:.1}x; {pairs} pairs each, reported only)",
        strict_us / relaxed_us
    );
}
