//! A strict Jini `bind` is atomic under concurrency (paper §5.1): of the
//! callers that bind one name at the same moment, exactly one succeeds and
//! the rest get `AlreadyBound`. Each round releases every caller from one
//! barrier, counts the winners and unbinds the name for the next round.

use std::sync::{Arc, Barrier};

use rndi::core::context::ContextExt;
use rndi::core::prelude::*;
use rndi::providers::JiniProviderContext;
use rndi::rlus::{ManualClock, Registrar};

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
