//! Phi-accrual failure detection (Hayashibara et al.).
//!
//! Instead of a binary timeout, the detector accrues *suspicion* on a
//! continuous scale: `phi(t)` is `-log10` of the probability that a peer
//! whose heartbeats historically arrived every `mean` milliseconds is
//! still alive after `t` milliseconds of silence. Under the exponential
//! inter-arrival model that is simply
//!
//! ```text
//! phi(t) = (t / mean) · log10(e) ≈ 0.4343 · t / mean
//! ```
//!
//! so a threshold of 8 tolerates ~18× the observed mean interval before
//! suspecting, and flappy links that deliver *some* heartbeats keep the
//! mean honest instead of resetting a timeout. The membership plane
//! suspects a peer at `phi ≥ threshold` and declares it dead at
//! `phi ≥ 2 × threshold`.

use std::collections::VecDeque;

/// log10(e): converts nats of silence to the phi scale.
const LOG10_E: f64 = std::f64::consts::LOG10_E;

/// Heartbeat samples kept per peer; enough to adapt, small enough that a
/// long-stable mean still reacts to a changed gossip cadence.
const WINDOW: usize = 32;

/// Suspicion accrual for one peer, fed by heartbeat arrival times.
#[derive(Clone, Debug)]
pub struct PhiFailureDetector {
    /// Observed inter-arrival gaps, milliseconds.
    window: VecDeque<u64>,
    /// Last heartbeat arrival, milliseconds on the caller's clock.
    last: Option<u64>,
    /// Mean assumed before any gap has been observed.
    initial_interval_ms: u64,
}

impl PhiFailureDetector {
    /// A detector that assumes `initial_interval_ms` between heartbeats
    /// until it has observed real gaps (use the gossip interval).
    pub fn new(initial_interval_ms: u64) -> PhiFailureDetector {
        PhiFailureDetector {
            window: VecDeque::new(),
            last: None,
            initial_interval_ms: initial_interval_ms.max(1),
        }
    }

    /// Record a heartbeat (any authenticated contact from the peer).
    pub fn heartbeat(&mut self, now_ms: u64) {
        if let Some(last) = self.last {
            if self.window.len() == WINDOW {
                self.window.pop_front();
            }
            self.window.push_back(now_ms.saturating_sub(last));
        }
        self.last = Some(now_ms);
    }

    /// Mean observed inter-arrival, floored at the configured interval:
    /// a peer may heartbeat *faster* than the gossip cadence (syncs from
    /// both directions plus group wires interleave), but judging silence
    /// against that inflated rate would let a couple of quiet rounds
    /// read as death. The cadence everyone actually promises is one
    /// contact per gossip interval, so that is the floor.
    fn mean_ms(&self) -> f64 {
        if self.window.is_empty() {
            return self.initial_interval_ms as f64;
        }
        let sum: u64 = self.window.iter().sum();
        (sum as f64 / self.window.len() as f64).max(self.initial_interval_ms as f64)
    }

    /// Current suspicion level. `0.0` until the first heartbeat — a peer
    /// we have never heard from is judged by the join timeout, not phi.
    pub fn phi(&self, now_ms: u64) -> f64 {
        let Some(last) = self.last else {
            return 0.0;
        };
        let elapsed = now_ms.saturating_sub(last) as f64;
        LOG10_E * elapsed / self.mean_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_grows_with_silence() {
        let mut d = PhiFailureDetector::new(25);
        for t in (0..=250).step_by(25) {
            d.heartbeat(t);
        }
        let quiet = d.phi(275);
        let quieter = d.phi(1_000);
        assert!(quiet < quieter, "{quiet} !< {quieter}");
        assert!(d.phi(250) < 1.0, "fresh heartbeat keeps phi low");
    }

    #[test]
    fn phi_zero_before_first_heartbeat() {
        let d = PhiFailureDetector::new(25);
        assert_eq!(d.phi(10_000), 0.0);
    }

    #[test]
    fn threshold_crossing_matches_mean_multiple() {
        let mut d = PhiFailureDetector::new(25);
        for t in (0..=320).step_by(40) {
            d.heartbeat(t); // mean settles at 40ms
        }
        // phi = 8 at elapsed = 8/0.4343 × 40 ≈ 737ms of silence.
        assert!(d.phi(320 + 700) < 8.0);
        assert!(d.phi(320 + 800) > 8.0);
    }

    #[test]
    fn slow_cadence_widens_tolerance() {
        let mut fast = PhiFailureDetector::new(25);
        let mut slow = PhiFailureDetector::new(25);
        for i in 0..20 {
            fast.heartbeat(i * 10);
            slow.heartbeat(i * 200);
        }
        // Same absolute silence accrues far more suspicion on the fast
        // cadence peer.
        assert!(fast.phi(190 + 500) > slow.phi(3_800 + 500));
    }
}
