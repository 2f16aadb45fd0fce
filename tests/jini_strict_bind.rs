//! A strict Jini `bind` is atomic under concurrency (paper §5.1): of the
//! callers that bind one name at the same moment, exactly one succeeds and
//! the rest get `AlreadyBound`. Each round releases every caller from one
//! barrier, counts the winners and unbinds the name for the next round.
//! And a strict bind behind a holder that never leaves the lock gives up
//! at its deadline.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rndi::core::context::ContextExt;
use rndi::core::prelude::*;
use rndi::core::value::BoundValue;
use rndi::providers::JiniProviderContext;
use rndi::rlus::{EntryTemplate, ManualClock, Registrar, ServiceTemplate};

const ROUNDS: usize = 1000;

type Jini = Arc<ProviderPipeline<JiniProviderContext>>;

fn context(registrar: &Registrar, clock: &Arc<ManualClock>, env: Environment) -> Jini {
    JiniProviderContext::new(registrar.clone(), clock.clone(), env, "race")
}

/// Runs [`ROUNDS`] rounds in which every caller binds `k` at once, and
/// returns `(round, winners)` for each round that did not have exactly one.
fn race(callers: &[Jini]) -> Vec<(usize, usize)> {
    let mut wrong = Vec::new();
    for round in 0..ROUNDS {
        let start = Barrier::new(callers.len());
        let winners = std::thread::scope(|s| {
            let handles: Vec<_> = callers
                .iter()
                .map(|ctx| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        match ctx.bind_str("k", "v") {
                            Ok(()) => true,
                            Err(NamingError::AlreadyBound { .. }) => false,
                            Err(e) => panic!("round {round}: bind failed: {e}"),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bind thread panicked"))
                .filter(|won| *won)
                .count()
        });
        if winners != 1 {
            wrong.push((round, winners));
        }
        callers[0]
            .unbind_str("k")
            .expect("the winner's binding is there");
    }
    wrong
}

#[test]
fn threads_of_one_context_bind_one_name_once() {
    let clock = ManualClock::new();
    let registrar = Registrar::new(clock.clone(), u64::MAX / 4, 1);
    let ctx = context(&registrar, &clock, Environment::new());
    let wrong = race(&vec![ctx; 4]);
    assert!(wrong.is_empty(), "(round, winners): {wrong:?}");
}

#[test]
fn two_contexts_on_one_registrar_bind_one_name_once() {
    let clock = ManualClock::new();
    let registrar = Registrar::new(clock.clone(), u64::MAX / 4, 2);
    let a = context(&registrar, &clock, Environment::new());
    let b = context(&registrar, &clock, Environment::new());
    let wrong = race(&[a, b]);
    assert!(wrong.is_empty(), "(round, winners): {wrong:?}");
}

/// Two slots stand for two processes: here the lock registers in the
/// lookup service alone decide the winner.
#[test]
fn contexts_on_distinct_slots_bind_one_name_once() {
    let clock = ManualClock::new();
    let registrar = Registrar::new(clock.clone(), u64::MAX / 4, 3);
    let slot = |i: u32| Environment::new().with(env_keys::JINI_LOCK_SLOT, i.to_string());
    let a = context(&registrar, &clock, slot(0));
    let b = context(&registrar, &clock, slot(1));
    let wrong = race(&[a.clone(), a, b.clone(), b]);
    assert!(wrong.is_empty(), "(round, winners): {wrong:?}");
}

/// Slot 1 dies inside the critical section: its flag stays `active` and
/// the turn stays its own. A strict bind on slot 0 with a deadline gives
/// up once the provider's clock reaches it, with a typed `Timeout`, instead
/// of spinning for as long as the registers say so; once the holder's flag
/// is idle again, the lock is there to take.
#[test]
fn a_strict_bind_behind_a_holder_that_never_leaves_times_out() {
    const DEADLINE_MS: u64 = 250;
    let clock = ManualClock::new();
    let registrar = Registrar::new(clock.clone(), u64::MAX / 4, 4);
    let slot = |i: u32| {
        Environment::new()
            .with(env_keys::JINI_LOCK_SLOT, i.to_string())
            .with(env_keys::NET_DEADLINE_MS, DEADLINE_MS.to_string())
    };
    // A strict bind on slot 1 leaves the turn with slot 1.
    let holder = context(&registrar, &clock, slot(1));
    holder.bind_str("taken", "v").unwrap();
    let set_holder_flag = |state: &str| {
        let flag = ServiceTemplate::any()
            .with_entry(EntryTemplate::new("RndiBinding").with("name", "__rndi_lock/bind/flag/1"));
        let mut item = registrar.lookup(&flag).expect("slot 1's flag register");
        item.service.payload = rndi::providers::common::marshal(&BoundValue::str(state)).unwrap();
        registrar.register(item, u64::MAX / 4);
    };
    set_holder_flag("active");

    let waiter = context(&registrar, &clock, slot(0));
    let (tx, rx) = mpsc::channel();
    let binding = waiter.clone();
    std::thread::spawn(move || tx.send(binding.bind_str("k", "v")));
    assert!(
        rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "a bind behind a holder waits while its deadline is ahead"
    );
    // Past the deadline, however late the bind read the clock; under a
    // deadline of its own, as a bind that never gives up never answers.
    let give_up = Instant::now() + Duration::from_secs(10);
    let got = loop {
        clock.advance(DEADLINE_MS);
        if let Ok(got) = rx.recv_timeout(Duration::from_millis(10)) {
            break got;
        }
        assert!(
            Instant::now() < give_up,
            "the bind still waits for a holder that never leaves"
        );
    };
    assert!(matches!(got, Err(NamingError::Timeout { .. })), "{got:?}");
    assert!(
        waiter.lookup_str("k").is_err(),
        "a bind that timed out binds nothing"
    );

    set_holder_flag("idle");
    waiter.bind_str("k", "v").unwrap();
    assert!(matches!(
        holder.bind_str("k", "w"),
        Err(NamingError::AlreadyBound { .. })
    ));
}
