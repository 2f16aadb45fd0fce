//! The authoritative server: hosts zones, answers queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::name::DnsName;
use crate::rr::{RecordType, ResourceRecord};
use crate::zone::{Zone, ZoneAnswer};

/// Response codes (subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rcode {
    NoError = 0,
    ServFail = 2,
    NxDomain = 3,
    Refused = 5,
}

/// A query response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub rcode: Rcode,
    /// Authoritative answer flag.
    pub aa: bool,
    pub answers: Vec<ResourceRecord>,
    /// Referral NS records, when the name is delegated away.
    pub authority: Vec<ResourceRecord>,
}

impl Response {
    pub fn is_referral(&self) -> bool {
        self.rcode == Rcode::NoError && self.answers.is_empty() && !self.authority.is_empty()
    }
}

/// Counters for experiments.
// Public as the type `AuthServer::stats` returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DnsStats {
    pub queries: u64,
    pub referrals: u64,
    pub nxdomain: u64,
}

/// The zones behind a write lock only their edits take, and the counters
/// beside it, so queries answer under the read lock, side by side.
#[derive(Default)]
struct Inner {
    zones: RwLock<Vec<Zone>>,
    queries: AtomicU64,
    referrals: AtomicU64,
    nxdomain: AtomicU64,
}

/// An authoritative DNS server (cheaply cloneable handle).
#[derive(Clone)]
pub struct AuthServer {
    inner: Arc<Inner>,
}

impl Default for AuthServer {
    fn default() -> Self {
        Self::new()
    }
}

impl AuthServer {
    pub fn new() -> Self {
        AuthServer {
            inner: Arc::default(),
        }
    }

    /// Load (or replace) a zone.
    pub fn add_zone(&self, zone: Zone) {
        let mut zones = self.inner.zones.write();
        zones.retain(|z| z.origin() != zone.origin());
        zones.push(zone);
    }

    /// Answer a query.
    pub fn query(&self, name: &DnsName, rtype: RecordType) -> Response {
        let count = |counter: &AtomicU64| counter.fetch_add(1, Ordering::Relaxed);
        count(&self.inner.queries);
        let zones = self.inner.zones.read();
        // Pick the zone with the longest origin that covers the name.
        let zone = zones
            .iter()
            .filter(|z| name.is_under(z.origin()))
            .max_by_key(|z| z.origin().label_count());
        let Some(zone) = zone else {
            return Response {
                rcode: Rcode::Refused,
                aa: false,
                answers: vec![],
                authority: vec![],
            };
        };
        match zone.query(name, rtype) {
            ZoneAnswer::Records(answers) => Response {
                rcode: Rcode::NoError,
                aa: true,
                answers,
                authority: vec![],
            },
            ZoneAnswer::Referral(ns) => {
                count(&self.inner.referrals);
                Response {
                    rcode: Rcode::NoError,
                    aa: false,
                    answers: vec![],
                    authority: ns,
                }
            }
            ZoneAnswer::Cname { chain, answers } => {
                let mut all = chain;
                all.extend(answers);
                Response {
                    rcode: Rcode::NoError,
                    aa: true,
                    answers: all,
                    authority: vec![],
                }
            }
            ZoneAnswer::NxDomain => {
                count(&self.inner.nxdomain);
                Response {
                    rcode: Rcode::NxDomain,
                    aa: true,
                    answers: vec![],
                    authority: vec![],
                }
            }
        }
    }

    pub fn stats(&self) -> DnsStats {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        DnsStats {
            queries: read(&self.inner.queries),
            referrals: read(&self.inner.referrals),
            nxdomain: read(&self.inner.nxdomain),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> AuthServer {
        let s = AuthServer::new();
        let mut z = Zone::new(DnsName::parse("edu").unwrap());
        z.insert(ResourceRecord::a("emory.edu", 300, [170, 140, 0, 1]));
        z.insert(ResourceRecord::ns("gatech.edu", 300, "ns.gatech.edu"));
        s.add_zone(z);
        let mut z2 = Zone::new(DnsName::parse("emory.edu").unwrap());
        z2.insert(ResourceRecord::a("www.emory.edu", 60, [170, 140, 0, 2]));
        s.add_zone(z2);
        s
    }

    #[test]
    fn longest_zone_wins() {
        let s = server();
        // www.emory.edu lives in the more specific emory.edu zone.
        let r = s.query(&DnsName::parse("www.emory.edu").unwrap(), RecordType::A);
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.aa);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn referral_and_refused() {
        let s = server();
        let r = s.query(&DnsName::parse("x.gatech.edu").unwrap(), RecordType::A);
        assert!(r.is_referral());
        assert_eq!(s.stats().referrals, 1);

        let r = s.query(&DnsName::parse("example.org").unwrap(), RecordType::A);
        assert_eq!(r.rcode, Rcode::Refused);
    }

    #[test]
    fn nxdomain_counted() {
        let s = server();
        let r = s.query(&DnsName::parse("nothere.emory.edu").unwrap(), RecordType::A);
        assert_eq!(r.rcode, Rcode::NxDomain);
        assert_eq!(s.stats().nxdomain, 1);
    }
}
