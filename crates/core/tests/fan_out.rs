//! `federation::fan_out` is the one scatter pool: federated subtree search
//! visits its mounts through it, and so do the shard router's scatter legs
//! and the cluster observer's scrapes. A scatter costs about its slowest
//! leg, not the sum of its legs, because `w` workers run `w` legs at once;
//! and it never runs more than `w`. Both are counted here, not timed: legs
//! meet at a barrier that only `w` concurrent legs can pass. The barrier
//! gives up at a deadline, so a pool that runs legs one at a time fails the
//! test instead of hanging it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rndi_core::federation::fan_out;

const DEADLINE: Duration = Duration::from_secs(10);

/// A barrier of `parties` that releases when all have arrived, or at the
/// deadline. `wait` says which.
struct Barrier {
    parties: usize,
    deadline: Instant,
    arrived: Mutex<usize>,
    all_in: Condvar,
}

impl Barrier {
    fn new(parties: usize) -> Self {
        Barrier {
            parties,
            deadline: Instant::now() + DEADLINE,
            arrived: Mutex::new(0),
            all_in: Condvar::new(),
        }
    }

    /// Arrive, then wait for the rest; `true` when all `parties` met.
    fn wait(&self) -> bool {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.all_in.notify_all();
        while *arrived < self.parties {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            arrived = self.all_in.wait_timeout(arrived, left).unwrap().0;
        }
        true
    }
}

#[test]
fn w_workers_run_w_legs_at_once() {
    for w in [2, 4, 8] {
        let barrier = Barrier::new(w);
        let met = fan_out(w, w, |_| barrier.wait());
        assert!(
            met.iter().all(|&m| m),
            "w = {w}: legs that met the other {}: {met:?}",
            w - 1
        );
    }
}

#[test]
fn more_legs_than_workers_never_run_more_than_w_at_once() {
    for (n, w) in [(9, 2), (32, 4), (40, 8)] {
        // The first `w` legs go to `w` distinct workers (each holds its leg
        // until the barrier opens), so the high-water mark reaches `w`.
        let barrier = Barrier::new(w);
        let in_flight = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let legs = fan_out(n, w, |i| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            let met = i >= w || barrier.wait();
            in_flight.fetch_sub(1, Ordering::SeqCst);
            (i, met)
        });
        assert_eq!(
            legs,
            (0..n).map(|i| (i, true)).collect::<Vec<_>>(),
            "n = {n}, w = {w}: results in index order, the first w legs met"
        );
        assert_eq!(high_water.into_inner(), w, "n = {n}, w = {w}");
    }
}
