//! Leases: time-bounded resource grants (Jini's leasing model).
//!
//! Every registration and event subscription in the lookup service is
//! leased: unless the holder renews before expiry, the registrar reclaims
//! the resource. This is the fundamental mismatch with JNDI, whose API "does
//! not specify any explicit data expiration policy" — the JNDI provider
//! resolves it by renewing leases client-side.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// A granted lease.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lease {
    /// Registrar-local lease identifier.
    pub id: u64,
    /// Absolute expiry (clock-relative milliseconds).
    pub expires_at_ms: u64,
}

/// Lease operation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LeaseError {
    /// The lease id is unknown or was already reclaimed.
    Unknown(u64),
    /// The lease had already expired at the time of the call.
    Expired(u64),
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::Unknown(id) => write!(f, "unknown lease {id}"),
            LeaseError::Expired(id) => write!(f, "lease {id} expired"),
        }
    }
}

impl std::error::Error for LeaseError {}

/// Bookkeeping for all leases a registrar has granted over resources of
/// type `R` (service ids, event registration ids, …).
#[derive(Debug)]
pub struct LeaseSet<R> {
    next_id: u64,
    /// Maximum duration the registrar will grant, regardless of request.
    max_duration_ms: u64,
    leases: HashMap<u64, (u64 /* expires */, R)>,
}

/// `[grant, renew, cancel, expire]` lease-lifecycle counters, resolved
/// once per process (shared by every `LeaseSet` regardless of `R`).
fn lease_counters() -> &'static [std::sync::Arc<rndi_obs::Counter>; 4] {
    static COUNTERS: std::sync::OnceLock<[std::sync::Arc<rndi_obs::Counter>; 4]> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let name = rndi_obs::metrics::names::LEASE_EVENTS;
        ["grant", "renew", "cancel", "expire"].map(|event| {
            rndi_obs::metrics::counter(name, &[("component", "rlus"), ("event", event)])
        })
    })
}

impl<R: Clone> LeaseSet<R> {
    pub fn new(max_duration_ms: u64) -> Self {
        LeaseSet {
            next_id: 1,
            max_duration_ms,
            leases: HashMap::new(),
        }
    }

    /// Grant a lease over `resource`. The granted duration is
    /// `min(requested, max)` — Jini registrars may shorten requests.
    pub fn grant(&mut self, resource: R, requested_ms: u64, now_ms: u64) -> Lease {
        let duration = requested_ms.min(self.max_duration_ms);
        let id = self.next_id;
        self.next_id += 1;
        let expires = now_ms + duration;
        self.leases.insert(id, (expires, resource));
        lease_counters()[0].inc();
        Lease {
            id,
            expires_at_ms: expires,
        }
    }

    /// Renew an existing lease.
    pub fn renew(&mut self, id: u64, requested_ms: u64, now_ms: u64) -> Result<Lease, LeaseError> {
        let entry = self.leases.get_mut(&id).ok_or(LeaseError::Unknown(id))?;
        if now_ms >= entry.0 {
            return Err(LeaseError::Expired(id));
        }
        let duration = requested_ms.min(self.max_duration_ms);
        entry.0 = now_ms + duration;
        lease_counters()[1].inc();
        Ok(Lease {
            id,
            expires_at_ms: entry.0,
        })
    }

    /// Cancel a lease, returning its resource.
    pub fn cancel(&mut self, id: u64) -> Result<R, LeaseError> {
        let out = self
            .leases
            .remove(&id)
            .map(|(_, r)| r)
            .ok_or(LeaseError::Unknown(id));
        if out.is_ok() {
            lease_counters()[2].inc();
        }
        out
    }

    /// Reclaim every expired lease, returning the resources.
    pub fn sweep(&mut self, now_ms: u64) -> Vec<R> {
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, (exp, _))| now_ms >= *exp)
            .map(|(id, _)| *id)
            .collect();
        let out: Vec<R> = expired
            .into_iter()
            .filter_map(|id| self.leases.remove(&id).map(|(_, r)| r))
            .collect();
        lease_counters()[3].add(out.len() as u64);
        out
    }

    /// The id the next [`LeaseSet::grant`] will assign. Callers that need
    /// the resource to embed its own lease id use this to pre-compute it.
    pub fn peek_next_id(&self) -> u64 {
        self.next_id
    }

    /// Look up the resource behind an unexpired lease.
    pub fn resource(&self, id: u64, now_ms: u64) -> Option<&R> {
        self.leases
            .get(&id)
            .filter(|(exp, _)| now_ms < *exp)
            .map(|(_, r)| r)
    }

    pub fn len(&self) -> usize {
        self.leases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_caps_at_max() {
        let mut ls: LeaseSet<&str> = LeaseSet::new(1000);
        let l = ls.grant("svc", 10_000, 0);
        assert_eq!(l.expires_at_ms, 1000);
        let l2 = ls.grant("svc2", 500, 0);
        assert_eq!(l2.expires_at_ms, 500);
        assert_ne!(l.id, l2.id);
    }

    #[test]
    fn renew_extends_unexpired() {
        let mut ls: LeaseSet<&str> = LeaseSet::new(1000);
        let l = ls.grant("svc", 1000, 0);
        let l2 = ls.renew(l.id, 1000, 400).unwrap();
        assert_eq!(l2.expires_at_ms, 1400);
    }

    #[test]
    fn renew_after_expiry_fails() {
        let mut ls: LeaseSet<&str> = LeaseSet::new(1000);
        let l = ls.grant("svc", 100, 0);
        assert_eq!(ls.renew(l.id, 100, 100), Err(LeaseError::Expired(l.id)));
        assert_eq!(ls.renew(999, 100, 0), Err(LeaseError::Unknown(999)));
    }

    #[test]
    fn sweep_reclaims_only_expired() {
        let mut ls: LeaseSet<u32> = LeaseSet::new(10_000);
        ls.grant(1, 100, 0);
        ls.grant(2, 500, 0);
        ls.grant(3, 1000, 0);
        let mut reclaimed = ls.sweep(500);
        reclaimed.sort();
        assert_eq!(reclaimed, vec![1, 2]);
        assert_eq!(ls.len(), 1);
    }

    #[test]
    fn cancel_returns_resource() {
        let mut ls: LeaseSet<String> = LeaseSet::new(1000);
        let l = ls.grant("x".into(), 100, 0);
        assert_eq!(ls.cancel(l.id).unwrap(), "x");
        assert_eq!(ls.cancel(l.id), Err(LeaseError::Unknown(l.id)));
    }

    #[test]
    fn resource_respects_expiry() {
        let mut ls: LeaseSet<u8> = LeaseSet::new(1000);
        let l = ls.grant(9, 100, 0);
        assert_eq!(ls.resource(l.id, 50), Some(&9));
        assert_eq!(ls.resource(l.id, 100), None);
    }
}
