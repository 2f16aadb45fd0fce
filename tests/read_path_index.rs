//! The indexed read paths stay indexed as the directory grows.
//!
//! A typed registrar lookup and an equality subtree search each make one
//! posting-set probe, whatever the number of items: at two sizes 20× apart
//! every such read adds exactly 1 to `rndi_index_reads_total{path="index"}`
//! and 0 to `path="scan"`, and returns exactly what the retained linear-scan
//! oracle (`Registrar::lookup_all_scan`, `Dit::search_scan`) returns. An
//! equality on what the directory does not file — the provider's payload
//! type `rndiValue`, and its class `objectClass: rndiObject` — is a scan
//! that answers as the oracle does, alone or beside a filed conjunct, whose
//! posting it leaves in charge. A posting loaded out of key order answers
//! as the oracle does too. The counters are process-wide, so the tests of
//! this binary take turns.

use std::sync::Mutex;
use std::time::Instant;

use rndi::ldap::dit::DitError;
use rndi::ldap::{Dit, Dn, LdapEntry, LdapFilter, Posting, Scope};
use rndi::obs::metrics::names::INDEX_READS;
use rndi::rlus::{
    Entry, EntryTemplate, ManualClock, Registrar, ServiceItem, ServiceStub, ServiceTemplate,
};

const SIZES: [usize; 2] = [1_000, 20_000];

/// Held by each test: a test counting reads must not count another's.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

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
                .with("objectClass", "rndiObject")
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
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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

        // Nor is the provider's class, which every entry but the two above
        // the leaves holds: alone it scans, beside `cn` it rides `cn`'s
        // posting, and it is never read as empty.
        let only = "(objectClass=rndiObject)".to_string();
        let any_case = "(OBJECTCLASS=RNDIOBJECT)".to_string();
        let with_cn = format!("(&(objectClass=rndiObject)(cn=u{held}))");
        let searches = [
            (only, (0, 1), n),
            (any_case, (0, 1), n),
            (with_cn, (1, 0), 1),
        ];
        for (filter, want_paths, want_len) in searches {
            let filter = LdapFilter::parse(&filter).unwrap();
            let (got, paths) = counted("dirserv", || dit.search(&base, Scope::Subtree, &filter, 0));
            assert_eq!(
                paths, want_paths,
                "n = {n}, {filter:?}: (index, scan) reads"
            );
            let got = dns(got.unwrap());
            let want = dns(dit.search_scan(&base, Scope::Subtree, &filter, 0).unwrap());
            assert_eq!(got.len(), want_len, "n = {n}, {filter:?}");
            assert_eq!(got, want, "n = {n}, {filter:?}");
        }
        assert_eq!(dit.posting("objectClass", "rndiObject"), None);
    }
}

/// Leaves of a posting one value all of them hold, `(role=shared)`.
const HOLDERS: usize = 20_000;
const DEPTS: usize = 20;

fn holder(i: usize) -> Dn {
    Dn::parse(&format!("cn=u{i:05},ou=d{:02},dc=example", i % DEPTS)).unwrap()
}

/// `order` shuffled by a seeded xorshift.
fn shuffled(mut order: Vec<usize>, mut seed: u64) -> Vec<usize> {
    for i in (1..order.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        order.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    order
}

/// The departments, then the holders in `order`; returns the time filing
/// the holders took.
fn load(dit: &mut Dit, order: &[usize]) -> std::time::Duration {
    dit.add(LdapEntry::new(Dn::parse("dc=example").unwrap()).with("dc", "example"))
        .unwrap();
    for d in 0..DEPTS {
        let ou = format!("d{d:02}");
        let dn = Dn::parse(&format!("ou={ou},dc=example")).unwrap();
        dit.add(LdapEntry::new(dn).with("ou", ou)).unwrap();
    }
    let start = Instant::now();
    for &i in order {
        let entry = LdapEntry::new(holder(i))
            .with("cn", format!("u{i:05}"))
            .with("role", "shared");
        dit.add(entry).unwrap();
    }
    start.elapsed()
}

/// Every scope under the root, a department and `leaf`, and a base search
/// of each, answer as the oracle does; and the posting is one handle
/// exactly when one holder is left.
fn answers_as_the_scan_does(dit: &Dit, leaf: &Dn, holders: usize, phase: &str) {
    let filter = LdapFilter::parse("(role=shared)").unwrap();
    let dns = |hits: Result<Vec<&LdapEntry>, DitError>| {
        hits.map(|hits| hits.iter().map(|e| e.dn().to_string()).collect::<Vec<_>>())
    };
    let dept = Dn::parse("ou=d07,dc=example").unwrap();
    for base in [Dn::root(), dept, leaf.clone()] {
        for scope in [Scope::OneLevel, Scope::Subtree] {
            let got = dns(dit.search(&base, scope, &filter, 0));
            let want = dns(dit.search_scan(&base, scope, &filter, 0));
            assert_eq!(got, want, "{phase}: {scope:?} under {base}");
        }
        let got = dit
            .search_base(&base, &filter)
            .map(|hit| hit.into_iter().collect());
        let want = dit.search_scan(&base, Scope::Base, &filter, 0);
        assert_eq!(dns(got), dns(want), "{phase}: base {base}");
    }
    let want = match holders {
        0 => None,
        1 => Some(Posting::One),
        n => Some(Posting::Many(n)),
    };
    assert_eq!(dit.posting("role", "shared"), want, "{phase}");
}

#[test]
fn a_posting_loaded_out_of_key_order_answers_as_the_scan_does() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let keep = holder(HOLDERS - 1);

    // Tree-key order is department first.
    let mut by_key: Vec<usize> = (0..HOLDERS).collect();
    by_key.sort_by_key(|&i| (i % DEPTS, i));
    by_key.reverse();
    let mut reversed = Dit::new();
    let took = load(&mut reversed, &by_key);
    println!("filing {HOLDERS} holders of one value in reversed key order took {took:?}");
    answers_as_the_scan_does(&reversed, &keep, HOLDERS, "reversed");

    let mut dit = Dit::new();
    load(
        &mut dit,
        &shuffled((0..HOLDERS).collect(), 0x9e37_79b9_7f4a_7c15),
    );
    answers_as_the_scan_does(&dit, &keep, HOLDERS, "shuffled");

    // Every third holder leaves, in an order of its own.
    let leaving = (0..HOLDERS).filter(|i| i % 3 == 0).collect();
    for i in shuffled(leaving, 0x2545_f491_4f6c_dd1d) {
        dit.delete(&holder(i)).unwrap();
    }
    let left: Vec<usize> = (0..HOLDERS).filter(|i| i % 3 != 0).collect();
    answers_as_the_scan_does(&dit, &keep, left.len(), "a third deleted");

    // All but one, then that one.
    let kept = HOLDERS - 1;
    for &i in left.iter().filter(|&&i| i != kept) {
        dit.delete(&holder(i)).unwrap();
    }
    answers_as_the_scan_does(&dit, &keep, 1, "one left");
    dit.delete(&keep).unwrap();
    answers_as_the_scan_does(&dit, &holder(1), 0, "none left");
}
