//! The indexed read paths stay indexed as the directory grows.
//!
//! A typed registrar lookup and an equality subtree search each make one
//! posting-set probe, whatever the number of items: at two sizes 20× apart
//! every such read adds exactly 1 to `rndi_index_reads_total{path="index"}`
//! and 0 to `path="scan"`, and returns exactly what the retained linear-scan
//! oracle (`Registrar::lookup_all_scan`, `Dit::search_scan`) returns. An
//! equality on the directory's one unfiled type, the provider's payload
//! `rndiValue`, is a scan that answers as the oracle does, alone or beside
//! a filed conjunct, whose posting it leaves in charge. The counters are
//! process-wide, so this binary holds this one test only.

use rndi::ldap::{Dit, Dn, LdapEntry, LdapFilter, Scope};
use rndi::obs::metrics::names::INDEX_READS;
use rndi::rlus::{
    Entry, EntryTemplate, ManualClock, Registrar, ServiceItem, ServiceStub, ServiceTemplate,
};

const SIZES: [usize; 2] = [1_000, 20_000];

/// `(index, scan)` reads counted so far for `server`.
fn reads(server: &str) -> (u64, u64) {
    let count = |path| {
        rndi::obs::metrics::counter(INDEX_READS, &[("server", server), ("path", path)]).get()
    };
    (count("index"), count("scan"))
}

/// Run `read` and return what it counted on `server`'s read paths.
fn counted<T>(server: &str, read: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = reads(server);
    let out = read();
    let after = reads(server);
    (out, (after.0 - before.0, after.1 - before.1))
}

fn registrar(n: usize) -> Registrar {
    let registrar = Registrar::new(ManualClock::new(), u64::MAX / 4, 1);
    for i in 0..n {
        let item = ServiceItem::new(ServiceStub::new(
            vec![format!("Type{}", i % 16), "Svc".to_string()],
            vec![(i % 251) as u8],
        ))
        .with_entry(Entry::name(format!("svc-{i}")));
        registrar.register(item, u64::MAX / 8);
    }
    registrar
}

/// Entry `i`'s payload at `version`: 64 characters, unique per entry.
fn payload(i: usize, version: u32) -> String {
    format!("{:<64}", format!("payload {i} v{version}"))
}

fn dit(n: usize) -> Dit {
    let mut dit = Dit::new();
    dit.add(LdapEntry::new(Dn::parse("dc=example").unwrap()).with("dc", "example"))
        .unwrap();
    dit.add(LdapEntry::new(Dn::parse("ou=people,dc=example").unwrap()).with("ou", "people"))
        .unwrap();
    for i in 0..n {
        let dn = Dn::parse(&format!("cn=u{i},ou=people,dc=example")).unwrap();
        dit.add(
            LdapEntry::new(dn)
                .with("cn", format!("u{i}"))
                .with("dept", format!("d{}", i % 32))
                .with("rndiValue", payload(i, 0)),
        )
        .unwrap();
    }
    dit
}

#[test]
fn typed_lookups_and_equality_searches_ride_the_index_at_every_size() {
    for n in SIZES {
        let registrar = registrar(n);
        let templates = [
            ServiceTemplate::by_type("Type3"),
            ServiceTemplate::by_type("Svc")
                .with_entry(EntryTemplate::new("Name").with("name", format!("svc-{}", n / 2))),
        ];
        for template in &templates {
            let (mut got, paths) = counted("rlus", || registrar.lookup_all(template, 0));
            assert_eq!(
                paths,
                (1, 0),
                "n = {n}, {template:?}: one index probe, no scan"
            );
            let mut want = registrar.lookup_all_scan(template, 0);
            assert!(!want.is_empty(), "n = {n}, {template:?}");
            got.sort_by_key(|item| item.service_id);
            want.sort_by_key(|item| item.service_id);
            assert_eq!(got, want, "n = {n}, {template:?}");
        }

        let mut dit = dit(n);
        let base = Dn::parse("dc=example").unwrap();
        let dns = |hits: Vec<&LdapEntry>| {
            let mut dns: Vec<String> = hits.iter().map(|e| e.dn().to_string()).collect();
            dns.sort();
            dns
        };
        for filter in [format!("(cn=u{})", n / 2), "(dept=d7)".to_string()] {
            let filter = LdapFilter::parse(&filter).unwrap();
            let (got, paths) = counted("dirserv", || dit.search(&base, Scope::Subtree, &filter, 0));
            assert_eq!(
                paths,
                (1, 0),
                "n = {n}, {filter:?}: one index probe, no scan"
            );
            let want = dns(dit.search_scan(&base, Scope::Subtree, &filter, 0).unwrap());
            assert!(!want.is_empty(), "n = {n}, {filter:?}");
            assert_eq!(dns(got.unwrap()), want, "n = {n}, {filter:?}");
        }

        // The payload is not filed: alone it scans, beside `cn` it rides
        // `cn`'s posting, and either way it answers as the oracle does.
        let held = n / 3;
        let payload_searches = |dit: &Dit, version: u32| {
            let only = format!("(rndiValue={})", payload(held, version));
            let with_cn = format!("(&(cn=u{held})(rndiValue={}))", payload(held, version));
            [(only, (0, 1)), (with_cn, (1, 0))].map(|(filter, want_paths)| {
                let filter = LdapFilter::parse(&filter).unwrap();
                let (got, paths) =
                    counted("dirserv", || dit.search(&base, Scope::Subtree, &filter, 0));
                assert_eq!(
                    paths, want_paths,
                    "n = {n}, {filter:?}: (index, scan) reads"
                );
                let got = dns(got.unwrap());
                let want = dns(dit.search_scan(&base, Scope::Subtree, &filter, 0).unwrap());
                assert_eq!(got, want, "n = {n}, {filter:?}");
                got
            })
        };
        let dn = format!("cn=u{held},ou=people,dc=example");
        let found = [vec![dn.clone()], vec![dn.clone()]];
        assert_eq!(payload_searches(&dit, 0), found);

        let mut entry = dit.get(&Dn::parse(&dn).unwrap()).unwrap().clone();
        entry.replace("rndiValue", vec![payload(held, 1)]);
        dit.replace(entry).unwrap();
        let none: [Vec<String>; 2] = Default::default();
        assert_eq!(payload_searches(&dit, 0), none, "n = {n}: old payload");
        assert_eq!(payload_searches(&dit, 1), found, "n = {n}: new payload");
    }
}
