//! Deterministic randomness for simulations.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// A seeded RNG handle shared by simulation components.
///
/// Clones share the underlying stream, so a single seed fixes the entire
/// run. Components that need independent streams should call
/// [`SimRng::fork`], which derives a child seeded from the parent — forked
/// streams stay deterministic but are insensitive to each other's draw
/// counts.
#[derive(Clone)]
pub struct SimRng {
    inner: Rc<RefCell<ChaCha12Rng>>,
}

impl SimRng {
    /// Create from an explicit 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: Rc::new(RefCell::new(ChaCha12Rng::seed_from_u64(seed))),
        }
    }

    /// Derive an independent child stream.
    pub fn fork(&self) -> SimRng {
        let seed = self.inner.borrow_mut().next_u64();
        SimRng::seed_from_u64(seed)
    }

    /// Uniform sample from a range, e.g. `rng.gen_range(0..10)`.
    pub fn gen_range<T, R>(&self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.borrow_mut().gen_range(range)
    }

    /// A uniform `f64` in `[0, 1)`.
    fn gen_f64(&self) -> f64 {
        self.inner.borrow_mut().gen::<f64>()
    }

    /// Exponentially distributed duration with the given mean.
    ///
    /// Used for service-time and inter-arrival jitter; the discrete-event
    /// server models draw from this to avoid artificial phase lock between
    /// closed-loop clients.
    pub fn exp_duration(&self, mean: Duration) -> Duration {
        let u: f64 = self.gen_f64().max(1e-12);
        let scale = -u.ln();
        Duration::from_nanos((mean.as_nanos() as f64 * scale) as u64)
    }

    /// Duration uniformly jittered by `±fraction` around `base`.
    pub fn jittered(&self, base: Duration, fraction: f64) -> Duration {
        let f = fraction.clamp(0.0, 1.0);
        let lo = 1.0 - f;
        let hi = 1.0 + f;
        let scale = self.gen_range(lo..hi.max(lo + f64::EPSILON));
        Duration::from_nanos((base.as_nanos() as f64 * scale) as u64)
    }
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SimRng")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = SimRng::seed_from_u64(7);
        let b = SimRng::seed_from_u64(7);
        let va: Vec<u32> = (0..16).map(|_| a.gen_range(0..1000)).collect();
        let vb: Vec<u32> = (0..16).map(|_| b.gen_range(0..1000)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn forks_are_independent_of_parent_draws() {
        let a = SimRng::seed_from_u64(7);
        let fork1 = a.fork();
        let v1: Vec<u32> = (0..8).map(|_| fork1.gen_range(0..1000)).collect();

        let b = SimRng::seed_from_u64(7);
        let fork2 = b.fork();
        // Draw from parent b *after* forking: fork stream unaffected.
        let _ = b.gen_f64();
        let v2: Vec<u32> = (0..8).map(|_| fork2.gen_range(0..1000)).collect();
        assert_eq!(v1, v2);
    }

    #[test]
    fn exp_duration_mean_is_plausible() {
        let rng = SimRng::seed_from_u64(42);
        let mean = Duration::from_millis(10);
        let n = 4000;
        let total: u128 = (0..n).map(|_| rng.exp_duration(mean).as_nanos()).sum();
        let avg_ms = total as f64 / n as f64 / 1e6;
        assert!((8.0..12.0).contains(&avg_ms), "avg {avg_ms} ms");
    }

    #[test]
    fn jitter_stays_in_band() {
        let rng = SimRng::seed_from_u64(3);
        let base = Duration::from_millis(100);
        for _ in 0..200 {
            let d = rng.jittered(base, 0.2).as_millis();
            assert!((80..=120).contains(&d), "jittered {d}");
        }
    }
}
