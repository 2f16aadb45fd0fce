//! Authoritative zones.
//!
//! A zone holds records for names at or under its origin, with delegation:
//! NS records at an interior name (other than the origin) cut the zone, and
//! queries at or below the cut yield referrals instead of answers. A name
//! with no records but a descendant that has some (an empty non-terminal)
//! exists, so NXDOMAIN denies a name and its whole subtree (RFC 8020).

use std::collections::{BTreeMap, HashMap};

use crate::name::DnsName;
use crate::rr::{RData, RecordType, ResourceRecord};

/// The answer a zone gives for a name/type query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Authoritative records (possibly empty for a name that exists with
    /// other types or none — a NODATA answer).
    Records(Vec<ResourceRecord>),
    /// The name lies below a delegation; here are the NS records to chase.
    Referral(Vec<ResourceRecord>),
    /// The queried name follows a CNAME; the alias chain is returned along
    /// with records of the requested type at the target when the target is
    /// in-zone.
    Cname {
        chain: Vec<ResourceRecord>,
        answers: Vec<ResourceRecord>,
    },
    /// The name does not exist in this zone.
    NxDomain,
}

/// One authoritative zone.
#[derive(Clone, Debug)]
pub struct Zone {
    origin: DnsName,
    /// name → records at that name.
    records: BTreeMap<DnsName, Vec<ResourceRecord>>,
    /// Each ancestor (down to the origin) of a name with records → how
    /// many such names are below it.
    interior: HashMap<DnsName, usize>,
}

impl Zone {
    pub fn new(origin: DnsName) -> Self {
        Zone {
            origin,
            records: BTreeMap::new(),
            interior: HashMap::new(),
        }
    }

    pub fn origin(&self) -> &DnsName {
        &self.origin
    }

    /// Insert a record. Panics when the record's name is outside the zone —
    /// zone files are operator-authored, so this is a programming error.
    pub fn insert(&mut self, rr: ResourceRecord) {
        assert!(
            rr.name.is_under(&self.origin),
            "record {} outside zone {}",
            rr.name,
            self.origin
        );
        if !self.records.contains_key(&rr.name) {
            self.count_below(&rr.name, true);
        }
        self.records.entry(rr.name.clone()).or_default().push(rr);
    }

    /// Remove every record of a given type at a name; returns the removed
    /// count (used by zone maintenance tooling).
    pub fn remove(&mut self, name: &DnsName, rtype: RecordType) -> usize {
        let Some(list) = self.records.get_mut(name) else {
            return 0;
        };
        let before = list.len();
        list.retain(|r| r.rtype() != rtype);
        let removed = before - list.len();
        if list.is_empty() {
            self.records.remove(name);
            self.count_below(name, false);
        }
        removed
    }

    /// Count `name` in (or out of) each of its ancestors' descendants.
    fn count_below(&mut self, name: &DnsName, arrived: bool) {
        let mut at = name.clone();
        while let Some(up) = at.parent().filter(|_| at != self.origin) {
            let below = self.interior.entry(up.clone()).or_default();
            *below = if arrived { *below + 1 } else { *below - 1 };
            if *below == 0 {
                self.interior.remove(&up);
            }
            at = up;
        }
    }

    /// Find the closest delegation cut strictly between the origin and
    /// `name` (inclusive of `name` itself).
    fn delegation_for(&self, name: &DnsName) -> Option<Vec<ResourceRecord>> {
        // Walk from just below the origin down towards the name.
        for depth in (self.origin.label_count() + 1)..=name.label_count() {
            let candidate = name.suffix(depth);
            if candidate == self.origin {
                continue;
            }
            if let Some(rrs) = self.records.get(&candidate) {
                let ns: Vec<ResourceRecord> = rrs
                    .iter()
                    .filter(|r| r.rtype() == RecordType::Ns)
                    .cloned()
                    .collect();
                if !ns.is_empty() && candidate != *name {
                    return Some(ns);
                }
                // NS at the queried name itself is also a referral unless
                // the query asks for NS explicitly — handled by the caller.
                if !ns.is_empty() && candidate == *name {
                    return Some(ns);
                }
            }
        }
        None
    }

    /// Answer a query authoritatively.
    pub fn query(&self, name: &DnsName, rtype: RecordType) -> ZoneAnswer {
        if !name.is_under(&self.origin) {
            return ZoneAnswer::NxDomain;
        }
        // Delegation check first (except NS queries at the cut itself,
        // which this simplified server also treats as referral — resolvers
        // handle both identically).
        if let Some(ns) = self.delegation_for(name) {
            let cut_is_name = ns[0].name == *name;
            if !(cut_is_name && rtype == RecordType::Ns) {
                return ZoneAnswer::Referral(ns);
            }
        }
        let Some(rrs) = self.records.get(name) else {
            return if self.interior.contains_key(name) {
                ZoneAnswer::Records(vec![])
            } else {
                ZoneAnswer::NxDomain
            };
        };
        // CNAME handling: if the name has a CNAME and the query is not for
        // CNAME itself, follow the chain within the zone.
        let cname = rrs.iter().find(|r| r.rtype() == RecordType::Cname);
        if let (Some(cname_rr), false) = (cname, rtype == RecordType::Cname) {
            let mut chain = vec![cname_rr.clone()];
            let mut target = match &cname_rr.rdata {
                RData::Cname(t) => t.clone(),
                _ => unreachable!("filtered on type"),
            };
            let mut answers = Vec::new();
            for _ in 0..8 {
                if let Some(rrs) = self.records.get(&target) {
                    if let Some(next) = rrs.iter().find(|r| r.rtype() == RecordType::Cname) {
                        chain.push(next.clone());
                        target = match &next.rdata {
                            RData::Cname(t) => t.clone(),
                            _ => unreachable!("filtered on type"),
                        };
                        continue;
                    }
                    answers = rrs.iter().filter(|r| r.rtype() == rtype).cloned().collect();
                }
                break;
            }
            return ZoneAnswer::Cname { chain, answers };
        }
        ZoneAnswer::Records(rrs.iter().filter(|r| r.rtype() == rtype).cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone() -> Zone {
        let mut z = Zone::new(DnsName::parse("emory.edu").unwrap());
        z.insert(ResourceRecord::a("emory.edu", 300, [170, 140, 0, 1]));
        z.insert(ResourceRecord::a("www.emory.edu", 300, [170, 140, 0, 2]));
        z.insert(ResourceRecord::txt("www.emory.edu", 300, "hello"));
        z.insert(ResourceRecord::cname("web.emory.edu", 300, "www.emory.edu"));
        // Delegate mathcs.emory.edu to its own server.
        z.insert(ResourceRecord::ns(
            "mathcs.emory.edu",
            300,
            "ns.mathcs.emory.edu",
        ));
        z
    }

    #[test]
    fn exact_answers() {
        let z = zone();
        match z.query(&DnsName::parse("www.emory.edu").unwrap(), RecordType::A) {
            ZoneAnswer::Records(rrs) => assert_eq!(rrs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let z = zone();
        match z.query(&DnsName::parse("www.emory.edu").unwrap(), RecordType::Srv) {
            ZoneAnswer::Records(rrs) => assert!(rrs.is_empty(), "NODATA is empty Records"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            z.query(&DnsName::parse("ghost.emory.edu").unwrap(), RecordType::A),
            ZoneAnswer::NxDomain
        );
        assert_eq!(
            z.query(&DnsName::parse("other.org").unwrap(), RecordType::A),
            ZoneAnswer::NxDomain
        );
    }

    #[test]
    fn referral_below_delegation() {
        let z = zone();
        let q = DnsName::parse("dcl.mathcs.emory.edu").unwrap();
        match z.query(&q, RecordType::A) {
            ZoneAnswer::Referral(ns) => {
                assert_eq!(ns.len(), 1);
                assert_eq!(ns[0].name, DnsName::parse("mathcs.emory.edu").unwrap());
            }
            other => panic!("unexpected {other:?}"),
        }
        // At the cut itself for A: also referral.
        match z.query(&DnsName::parse("mathcs.emory.edu").unwrap(), RecordType::A) {
            ZoneAnswer::Referral(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cname_followed_in_zone() {
        let z = zone();
        match z.query(&DnsName::parse("web.emory.edu").unwrap(), RecordType::A) {
            ZoneAnswer::Cname { chain, answers } => {
                assert_eq!(chain.len(), 1);
                assert_eq!(answers.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Asking for the CNAME itself returns the CNAME record.
        match z.query(&DnsName::parse("web.emory.edu").unwrap(), RecordType::Cname) {
            ZoneAnswer::Records(rrs) => assert_eq!(rrs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn remove_records() {
        let mut z = zone();
        let n = DnsName::parse("www.emory.edu").unwrap();
        assert_eq!(z.remove(&n, RecordType::A), 1);
        assert_eq!(z.remove(&n, RecordType::A), 0);
        match z.query(&n, RecordType::Txt) {
            ZoneAnswer::Records(rrs) => assert_eq!(rrs.len(), 1, "TXT survives"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn insert_outside_zone_panics() {
        let mut z = Zone::new(DnsName::parse("emory.edu").unwrap());
        z.insert(ResourceRecord::a("gatech.edu", 300, [1, 2, 3, 4]));
    }
}
