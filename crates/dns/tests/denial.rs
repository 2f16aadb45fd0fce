//! Negative answers as RFC 8020 gives them: a zone answers NODATA for an
//! empty non-terminal, so NXDOMAIN denies a name and its whole subtree, and
//! the resolver answers every name under a live denial from that one line.

use std::collections::HashSet;

use proptest::prelude::*;

use minidns::zone::ZoneAnswer;
use minidns::{
    AuthServer, DnsName, Rcode, RecordType, ResolveError, Resolver, ResourceRecord, Zone,
};

fn name(text: &str) -> DnsName {
    DnsName::parse(text).unwrap()
}

/// `example` with a TXT at `keep.example` (an hour), an A only at
/// `a.example` (one minute) and a TXT two levels below `ent.example`.
fn world() -> (AuthServer, Resolver) {
    let server = AuthServer::new();
    let mut zone = Zone::new(name("example"));
    zone.insert(ResourceRecord::txt("keep.example", 3_600, "kept"));
    zone.insert(ResourceRecord::a("a.example", 60, [10, 0, 0, 1]));
    zone.insert(ResourceRecord::txt("x.y.ent.example", 60, "deep"));
    server.add_zone(zone);
    (server.clone(), Resolver::new(vec![server]))
}

#[test]
fn an_empty_non_terminal_is_nodata_until_its_last_descendant_goes() {
    let mut zone = Zone::new(name("edu"));
    zone.insert(ResourceRecord::txt("x.lab.cs.edu", 60, "v"));
    for ent in ["lab.cs.edu", "cs.edu", "edu"] {
        let answer = zone.query(&name(ent), RecordType::Txt);
        assert_eq!(answer, ZoneAnswer::Records(vec![]), "{ent}");
    }
    zone.remove(&name("x.lab.cs.edu"), RecordType::Txt);
    for gone in ["x.lab.cs.edu", "lab.cs.edu", "cs.edu", "edu"] {
        let answer = zone.query(&name(gone), RecordType::Txt);
        assert_eq!(answer, ZoneAnswer::NxDomain, "{gone}");
    }
}

#[test]
fn a_cached_nxdomain_denies_every_name_below_it_for_every_type() {
    let (_, r) = world();
    assert!(matches!(
        r.resolve(&name("ghost.example"), RecordType::Txt, 0),
        Err(ResolveError::NxDomain(_))
    ));
    let (upstream, lines) = (r.stats().upstream_queries, r.cache_len());
    for (below, rtype) in [
        ("ghost.example", RecordType::A),
        ("x.ghost.example", RecordType::Txt),
        ("y.x.ghost.example", RecordType::Srv),
        ("z.ghost.example", RecordType::Cname),
    ] {
        let hits = r.stats().hits;
        assert_eq!(
            r.resolve(&name(below), rtype, 1_000),
            Err(ResolveError::NxDomain(name(below))),
            "{below} {rtype:?}"
        );
        assert_eq!(r.stats().hits, hits + 1, "{below} is a hit");
    }
    assert_eq!(
        r.stats().upstream_queries,
        upstream,
        "nothing asked upstream"
    );
    assert_eq!(r.cache_len(), lines, "no line minted");
}

#[test]
fn an_expired_denial_denies_nothing() {
    let (_, r) = world();
    let _ = r.resolve(&name("ghost.example"), RecordType::Txt, 0);
    let upstream = r.stats().upstream_queries;
    // Thirty seconds of negative TTL later, the child is asked for itself.
    assert!(r
        .resolve(&name("x.ghost.example"), RecordType::Txt, 30_000)
        .is_err());
    assert_eq!(r.stats().upstream_queries, upstream + 1);
}

#[test]
fn nodata_and_positive_ancestors_deny_nothing() {
    let (_, r) = world();
    // `ent.example` exists only as an ancestor: NODATA, not a denial.
    assert_eq!(
        r.resolve(&name("ent.example"), RecordType::Txt, 0),
        Ok(vec![])
    );
    assert_eq!(
        r.resolve(&name("y.ent.example"), RecordType::Txt, 0),
        Ok(vec![])
    );
    let deep = r.resolve(&name("x.y.ent.example"), RecordType::Txt, 0);
    assert_eq!(deep.unwrap().len(), 1, "the record below a NODATA name");
    // `a.example` has records (of another type): NODATA for TXT, and the
    // names below it are asked about, not denied from its line.
    assert_eq!(
        r.resolve(&name("a.example"), RecordType::Txt, 0),
        Ok(vec![])
    );
    r.resolve(&name("keep.example"), RecordType::Txt, 0)
        .unwrap();
    for below in ["b.a.example", "b.keep.example"] {
        let upstream = r.stats().upstream_queries;
        assert!(r.resolve(&name(below), RecordType::Txt, 0).is_err());
        assert_eq!(r.stats().upstream_queries, upstream + 1, "{below} asked");
    }
}

/// What `server` answers for `name`/`rtype`, in the resolver's terms.
fn authoritative(
    server: &AuthServer,
    name: &DnsName,
    rtype: RecordType,
) -> Result<Vec<ResourceRecord>, ResolveError> {
    let resp = server.query(name, rtype);
    match resp.rcode {
        Rcode::NoError => Ok(resp.answers),
        Rcode::NxDomain => Err(ResolveError::NxDomain(name.clone())),
        other => Err(ResolveError::ServFail(format!("{other:?}"))),
    }
}

/// `t` or a name up to three labels below it, from `[abc]`: names with
/// records, empty non-terminals above them and names that do not exist.
fn path() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[abc]", 0..4)
}

fn dns_name(path: &[String]) -> DnsName {
    path.iter().fold(name("t"), |n, label| n.child(label))
}

proptest! {
    /// Whatever the zone and the order names are asked in, the resolver
    /// answers what the zone does, and keeps no more lines than distinct
    /// names asked: one per name denied, whatever types it was asked for,
    /// and one per type answered.
    #[test]
    fn the_resolver_answers_what_the_zone_does(
        records in proptest::collection::vec((path(), any::<bool>()), 0..8),
        asks in proptest::collection::vec((path(), any::<bool>(), 0u64..40_000), 1..40),
    ) {
        let mut zone = Zone::new(name("t"));
        for (path, txt) in &records {
            let at = dns_name(path).to_string();
            zone.insert(if *txt {
                ResourceRecord::txt(&at, 3_600, "v")
            } else {
                ResourceRecord::a(&at, 3_600, [10, 0, 0, 1])
            });
        }
        let server = AuthServer::new();
        server.add_zone(zone);
        let resolver = Resolver::new(vec![server.clone()]);
        let (mut denied, mut answered) = (HashSet::new(), HashSet::new());
        let mut now_ms = 0;
        for (path, txt, step_ms) in asks {
            now_ms += step_ms;
            let (name, rtype) = (dns_name(&path), if txt { RecordType::Txt } else { RecordType::A });
            let answer = resolver.resolve(&name, rtype, now_ms);
            prop_assert_eq!(
                &answer,
                &authoritative(&server, &name, rtype),
                "{} {:?} at {} ms", name, rtype, now_ms
            );
            match answer {
                Ok(_) => answered.insert((name, rtype)),
                Err(_) => denied.insert(name),
            };
            prop_assert!(resolver.cache_len() <= denied.len() + answered.len());
        }
    }
}
