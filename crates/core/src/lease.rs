//! Client-side lease emulation.
//!
//! The JNDI API has no data-expiration concept, but Jini entries expire
//! unless their leases are renewed. The paper's resolution (§5.1 "Handling
//! leases") is to renew leases *inside the provider*: every entry a
//! provider binds is kept alive automatically until it is explicitly
//! unbound or the process exits. [`LeaseRenewalManager`] implements that
//! policy, decoupled from wall-clock time through the process's one
//! millisecond [`Clock`] so both simulations and real deployments can drive
//! it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::Result;

pub use rndi_obs::clock::{Clock, ManualClock};

/// The renewal callback: ask the backend to extend the lease on `key` by
/// `duration_ms`; returns the new absolute expiry (clock-relative ms).
pub trait LeaseRenewer: Send + Sync {
    fn renew(&self, key: &str, duration_ms: u64) -> Result<u64>;
}

struct ManagedLease {
    expires_at_ms: u64,
    duration_ms: u64,
    renewer: Arc<dyn LeaseRenewer>,
}

/// Summary of one [`LeaseRenewalManager::poll`] pass.
// Public as the type `LeaseRenewalManager::poll` returns.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PollOutcome {
    /// Keys whose leases were successfully renewed.
    pub renewed: Vec<String>,
    /// Keys whose renewal failed (entry likely expired remotely); they are
    /// dropped from management.
    pub failed: Vec<String>,
}

/// Tracks leases and renews each one when it enters the renewal margin.
pub struct LeaseRenewalManager {
    clock: Arc<dyn Clock>,
    /// Renew when remaining validity falls below this fraction of the
    /// total duration (e.g. `0.25` = renew in the last quarter).
    margin: f64,
    leases: Mutex<HashMap<String, ManagedLease>>,
}

impl LeaseRenewalManager {
    pub fn new(clock: Arc<dyn Clock>, margin: f64) -> Self {
        LeaseRenewalManager {
            clock,
            margin: margin.clamp(0.01, 0.99),
            leases: Mutex::new(HashMap::new()),
        }
    }

    /// Begin managing the lease for `key`.
    pub fn manage(
        &self,
        key: impl Into<String>,
        expires_at_ms: u64,
        duration_ms: u64,
        renewer: Arc<dyn LeaseRenewer>,
    ) {
        self.leases.lock().insert(
            key.into(),
            ManagedLease {
                expires_at_ms,
                duration_ms,
                renewer,
            },
        );
    }

    /// Stop managing `key` (after an explicit unbind).
    pub fn unmanage(&self, key: &str) {
        self.leases.lock().remove(key);
    }

    /// Number of leases under management.
    pub fn len(&self) -> usize {
        self.leases.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.leases.lock().is_empty()
    }

    /// The earliest instant at which some lease needs renewal.
    #[cfg(test)]
    fn next_due_ms(&self) -> Option<u64> {
        let leases = self.leases.lock();
        leases.values().map(|l| renew_point(l, self.margin)).min()
    }

    /// Renew every lease that has entered its renewal margin. Failed
    /// renewals are dropped from management and reported.
    pub fn poll(&self) -> PollOutcome {
        let now = self.clock.now_ms();
        let due: Vec<(String, u64, Arc<dyn LeaseRenewer>)> = {
            let leases = self.leases.lock();
            leases
                .iter()
                .filter(|(_, l)| now >= renew_point(l, self.margin))
                .map(|(k, l)| (k.clone(), l.duration_ms, l.renewer.clone()))
                .collect()
        };
        let mut outcome = PollOutcome::default();
        for (key, duration, renewer) in due {
            match renewer.renew(&key, duration) {
                Ok(new_expiry) => {
                    if let Some(l) = self.leases.lock().get_mut(&key) {
                        l.expires_at_ms = new_expiry;
                    }
                    outcome.renewed.push(key);
                }
                Err(_) => {
                    self.leases.lock().remove(&key);
                    outcome.failed.push(key);
                }
            }
        }
        outcome.renewed.sort();
        outcome.failed.sort();
        outcome
    }
}

fn renew_point(l: &ManagedLease, margin: f64) -> u64 {
    let lead = (l.duration_ms as f64 * margin) as u64;
    l.expires_at_ms.saturating_sub(lead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NamingError;
    use parking_lot::Mutex as PMutex;

    struct FakeBackend {
        clock: Arc<ManualClock>,
        renewals: PMutex<Vec<String>>,
        fail_keys: Vec<String>,
    }

    impl LeaseRenewer for FakeBackend {
        fn renew(&self, key: &str, duration_ms: u64) -> Result<u64> {
            if self.fail_keys.iter().any(|k| k == key) {
                return Err(NamingError::LeaseExpired { name: key.into() });
            }
            self.renewals.lock().push(key.to_string());
            Ok(self.clock.now_ms() + duration_ms)
        }
    }

    #[test]
    fn renews_inside_margin_only() {
        let clock = ManualClock::new();
        let backend = Arc::new(FakeBackend {
            clock: clock.clone(),
            renewals: PMutex::new(vec![]),
            fail_keys: vec![],
        });
        let mgr = LeaseRenewalManager::new(clock.clone(), 0.25);
        // Lease of 1000ms expiring at t=1000; renew point = 750.
        mgr.manage("a", 1000, 1000, backend.clone());

        clock.set(500);
        assert_eq!(mgr.poll(), PollOutcome::default());
        clock.set(750);
        let out = mgr.poll();
        assert_eq!(out.renewed, vec!["a".to_string()]);
        // Renewed to 750 + 1000 = 1750; next renewal at 1500.
        assert_eq!(mgr.next_due_ms(), Some(1500));
    }

    #[test]
    fn failed_renewal_drops_lease() {
        let clock = ManualClock::new();
        let backend = Arc::new(FakeBackend {
            clock: clock.clone(),
            renewals: PMutex::new(vec![]),
            fail_keys: vec!["dead".into()],
        });
        let mgr = LeaseRenewalManager::new(clock.clone(), 0.5);
        mgr.manage("dead", 100, 100, backend.clone());
        mgr.manage("alive", 100, 100, backend.clone());
        clock.set(60);
        let out = mgr.poll();
        assert_eq!(out.failed, vec!["dead".to_string()]);
        assert_eq!(out.renewed, vec!["alive".to_string()]);
        assert_eq!(mgr.len(), 1, "failed lease no longer managed");
    }

    #[test]
    fn unmanage_stops_renewal() {
        let clock = ManualClock::new();
        let backend = Arc::new(FakeBackend {
            clock: clock.clone(),
            renewals: PMutex::new(vec![]),
            fail_keys: vec![],
        });
        let mgr = LeaseRenewalManager::new(clock.clone(), 0.25);
        mgr.manage("x", 100, 100, backend.clone());
        mgr.unmanage("x");
        clock.set(1000);
        assert_eq!(mgr.poll(), PollOutcome::default());
        assert!(mgr.is_empty());
        assert_eq!(mgr.next_due_ms(), None);
    }
}
