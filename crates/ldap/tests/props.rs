//! Property tests: DIT structural invariants, filter totality, an entry's
//! record against its oracle; and the rules a stored entry keeps.

use std::sync::Arc;

use proptest::prelude::*;

use dirserv::server::{LdapResult, Modification};
use dirserv::{
    DirectoryServer, Dit, Dn, LdapEntry, LdapFilter, Rdn, ResultCode, Scope, ServerConfig,
};

fn dn_strategy() -> impl Strategy<Value = Dn> {
    proptest::collection::vec(("[a-c]", "[a-d]{1,2}"), 1..4).prop_map(|rdns| {
        // Build root-first so parents are prefixes of children.
        let mut dn = Dn::root();
        for (a, v) in rdns.into_iter().rev() {
            dn = dn.child(Rdn::new(a, v));
        }
        dn
    })
}

/// `dn` with every RDN value in upper case: another spelling of the same
/// DN.
fn shouted(dn: &Dn) -> Dn {
    recased(dn, u64::MAX)
}

/// `dn` with the `i`-th letter of its values upper-cased where bit `i` of
/// `mask` is set (bits reused past 64), lower-cased elsewhere.
fn recased(dn: &Dn, mask: u64) -> Dn {
    let mut bit = 0;
    let mut recase = |value: &str| -> String {
        value
            .chars()
            .map(|c| {
                bit = (bit + 1) % 64;
                match (mask >> bit) & 1 {
                    1 => c.to_ascii_uppercase(),
                    _ => c.to_ascii_lowercase(),
                }
            })
            .collect()
    };
    Dn::from_rdns(
        dn.rdns()
            .map(|r| Rdn::new(r.attr(), recase(&r.value())))
            .collect(),
    )
}

#[derive(Clone, Debug)]
enum DitOp {
    Add(Dn),
    Delete(Dn),
    Rename(Dn, String),
    /// Rewrite the content of the `n`-th entry present (modulo how many
    /// there are, so the draw always lands on one) with these
    /// `(attribute, value)` pairs.
    Update(usize, Vec<(&'static str, String)>),
}

/// What `Update` draws from: few ids (one of them twice, in two cases) and
/// values that fold to two, so that consecutive rewrites of an entry give an
/// attribute several values, change a value's case and nothing else, move a
/// value from one attribute to another and drop an attribute — and share
/// their postings with what `Add` and `Rename` index under `cn`.
const UPDATE_IDS: [&str; 4] = ["cn", "CN", "seq", "tag"];

fn update_attrs() -> impl Strategy<Value = Vec<(&'static str, String)>> {
    proptest::collection::vec((0..UPDATE_IDS.len(), "[abAB]"), 0..5).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(id, v)| (UPDATE_IDS[id], v))
            .collect()
    })
}

fn op_strategy() -> impl Strategy<Value = DitOp> {
    prop_oneof![
        3 => dn_strategy().prop_map(DitOp::Add),
        2 => dn_strategy().prop_map(DitOp::Delete),
        1 => (dn_strategy(), "[a-d]{1,2}").prop_map(|(dn, v)| DitOp::Rename(dn, v)),
        3 => (0usize..64, update_attrs()).prop_map(|(n, attrs)| DitOp::Update(n, attrs)),
    ]
}

/// Apply an `Update`: `false` when the tree is empty.
fn apply_update(dit: &mut Dit, n: usize, attrs: &[(&str, String)]) -> bool {
    let Some(dn) = dit.iter().nth(n % dit.len().max(1)).map(|e| e.dn.clone()) else {
        return false;
    };
    let mut entry = LdapEntry::new(dn);
    for (id, value) in attrs {
        entry.add_value(id, value.clone());
    }
    dit.update(entry).expect("the entry is there");
    true
}

proptest! {
    /// After any op sequence: every entry's parent exists (except
    /// suffixes), and no delete ever left orphans behind.
    #[test]
    fn dit_structure_invariant(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let mut dit = Dit::new();
        for op in &ops {
            match op {
                DitOp::Add(dn) => {
                    let _ = dit.add(LdapEntry::new(dn.clone()).with("cn", "x"));
                }
                DitOp::Delete(dn) => {
                    let _ = dit.delete(dn);
                }
                DitOp::Rename(dn, v) => {
                    let _ = dit.modify_rdn(dn, Rdn::new("cn", v.clone()));
                }
                DitOp::Update(n, attrs) => {
                    apply_update(&mut dit, *n, attrs);
                }
            }
            for e in dit.iter() {
                if let Some(parent) = e.dn.parent() {
                    if !parent.is_root() {
                        assert!(
                            dit.contains(&parent),
                            "orphan {} after {:?}",
                            e.dn,
                            ops
                        );
                    }
                }
            }
        }
    }

    /// Subtree search from the root finds exactly the entries matching the
    /// filter — cross-checked against direct iteration.
    #[test]
    fn search_agrees_with_iteration(
        dns in proptest::collection::vec(dn_strategy(), 0..20),
        needle in "[a-d]{1,2}",
    ) {
        let mut dit = Dit::new();
        for dn in dns {
            let value = dn.rdn().map(|r| r.value().into_owned()).unwrap_or_default();
            let _ = dit.add(LdapEntry::new(dn).with("cn", value));
        }
        let filter = LdapFilter::parse(&format!("(cn={needle})")).unwrap();
        let hits = dit
            .search(&Dn::root(), Scope::Subtree, &filter, 0)
            .unwrap();
        let expected = dit.iter().filter(|e| filter.matches(e)).count();
        prop_assert_eq!(hits.len(), expected);
    }

    /// The filter parser is total (never panics) on arbitrary input.
    #[test]
    fn filter_parser_is_total(input in "[ -~]{0,60}") {
        let _ = LdapFilter::parse(&input);
    }

    /// Parsed-then-printed DNs normalize identically (case folding).
    #[test]
    fn dn_normalization_idempotent(dn in dn_strategy()) {
        let printed = dn.to_string();
        let reparsed = Dn::parse(&printed).unwrap();
        prop_assert_eq!(reparsed.normalized(), dn.normalized());
        prop_assert_eq!(Dn::parse(&reparsed.to_string()).unwrap().normalized(), dn.normalized());
    }

    /// Depth bookkeeping: is_child_of implies is_under and depth+1.
    #[test]
    fn child_relation_consistency(a in dn_strategy(), b in dn_strategy()) {
        if a.is_child_of(&b) {
            prop_assert!(a.is_under(&b));
            prop_assert_eq!(a.depth(), b.depth() + 1);
        }
        prop_assert!(a.is_under(&Dn::root()));
    }

    /// Oracle equivalence: the indexed/range-scan `search` agrees with the
    /// retained full-iteration `search_scan` for every scope, arbitrary
    /// bases (existing or not) and a spread of filters, after arbitrary
    /// add/delete/rename/update interleavings.
    #[test]
    fn indexed_search_matches_scan_oracle(
        ops in proptest::collection::vec(op_strategy(), 0..50),
        bases in proptest::collection::vec(dn_strategy(), 1..4),
        needle in "[a-d]{1,2}",
    ) {
        let mut dit = Dit::new();
        // Every pair an `Update` wrote (folded): each becomes a filter.
        let mut touched = std::collections::BTreeSet::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                DitOp::Add(dn) => {
                    let value = dn.rdn().map(|r| r.value().into_owned()).unwrap_or_default();
                    let _ = dit.add(
                        LdapEntry::new(dn.clone())
                            .with("cn", value)
                            .with("seq", format!("{}", i % 5)),
                    );
                }
                DitOp::Delete(dn) => {
                    let _ = dit.delete(dn);
                }
                DitOp::Rename(dn, v) => {
                    let _ = dit.modify_rdn(dn, Rdn::new("cn", v.clone()));
                }
                DitOp::Update(n, attrs) => {
                    if apply_update(&mut dit, *n, attrs) {
                        touched.extend(attrs.iter().map(|(id, v)| {
                            format!("({}={})", id.to_ascii_lowercase(), v.to_ascii_lowercase())
                        }));
                    }
                }
            }
        }

        let mut filters = vec![
            format!("(cn={needle})"),
            format!("(&(cn={needle})(seq=1))"),
            format!("(|(cn={needle})(seq=2))"),
            "(cn=*)".to_string(),
            format!("(!(cn={needle}))"),
            "(&(cn=a)(tag=A))".to_string(),
        ];
        filters.extend(touched);
        // Each base also in upper case: another spelling of the same DN.
        let mut all_bases = vec![Dn::root()];
        all_bases.extend(bases.iter().map(shouted));
        all_bases.extend(dit.iter().take(2).map(|e| shouted(&e.dn)));
        all_bases.extend(bases);
        for base in &all_bases {
            for scope in [Scope::Base, Scope::OneLevel, Scope::Subtree] {
                for (raw, limit) in filters.iter().flat_map(|f| [(f, 0usize), (f, 2)]) {
                    let filter = LdapFilter::parse(raw).unwrap();
                    let indexed = dit.search(base, scope, &filter, limit);
                    let scanned = dit.search_scan(base, scope, &filter, limit);
                    match (&indexed, &scanned) {
                        (Ok(a), Ok(b)) => {
                            let dns = |v: &[&Arc<LdapEntry>]| {
                                let mut d: Vec<String> =
                                    v.iter().map(|e| e.dn.normalized()).collect();
                                d.sort();
                                d
                            };
                            if limit == 0 {
                                prop_assert_eq!(
                                    dns(a), dns(b),
                                    "scope {:?} base {} filter {}", scope, base, raw
                                );
                            } else {
                                // Capped searches may pick different subsets;
                                // the cap itself must bite identically.
                                prop_assert_eq!(a.len(), b.len());
                            }
                        }
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(
                            false,
                            "divergent error: {:?} vs {:?}", indexed, scanned
                        ),
                    }
                }
            }
        }
    }
}

proptest! {
    /// `Connection::read(dn)` is the first entry of a base-scope match-all
    /// `search(dn)`: same entry, same `NoSuchObject` (a missing DN, an
    /// entry without `objectClass`), found through any spelling of the DN,
    /// same throttle delay, same counters. Two
    /// identical servers are driven in lockstep, because every read spends
    /// a throttle admission.
    #[test]
    fn read_is_a_base_scope_match_all_search(
        entries in proptest::collection::vec((dn_strategy(), any::<bool>()), 0..16),
        probes in proptest::collection::vec((dn_strategy(), any::<bool>(), 0u64..400), 1..24),
    ) {
        let server = || {
            let s = DirectoryServer::new(ServerConfig {
                validate_schema: false,
                read_throttle_per_sec: Some(3),
                ..Default::default()
            });
            let conn = s.connect_anonymous();
            for (dn, classed) in &entries {
                let mut e = LdapEntry::new(dn.clone()).with("cn", "x");
                if *classed {
                    e = e.with("objectClass", "device");
                }
                let _ = conn.add(e);
            }
            s
        };
        let (by_read, by_search) = (server(), server());
        let (reader, searcher) = (by_read.connect_anonymous(), by_search.connect_anonymous());
        let mut now_ms = 0;
        // Every entry's own DN is probed too, so hits are not left to luck.
        let own = entries.iter().map(|(dn, _)| (dn.clone(), false, 40));
        for (dn, shout, step_ms) in own.chain(probes) {
            now_ms += step_ms;
            let dn = if shout { shouted(&dn) } else { dn };
            let read = reader.read(&dn, now_ms);
            let searched = searcher
                .search(&dn, Scope::Base, &LdapFilter::match_all(), None, now_ms)
                .and_then(|out| {
                    let delay_ms = out.delay_ms;
                    out.entries
                        .into_iter()
                        .next()
                        .map(|e| (e, delay_ms))
                        .ok_or_else(|| (dirserv::ResultCode::NoSuchObject, dn.to_string()))
                });
            prop_assert_eq!(read, searched, "dn {} at {} ms", dn, now_ms);
        }
        prop_assert_eq!(by_read.stats(), by_search.stats());
    }
}

proptest! {
    /// A DN and every spelling of it that differs only in the case of its
    /// values name one entry: `get`, `Connection::read`, `add`, `delete`
    /// and all three scopes (indexed and scanned) find it — or refuse it,
    /// when it is not there — the same through either spelling.
    #[test]
    fn every_spelling_of_a_dn_names_one_entry(
        dns in proptest::collection::vec(dn_strategy(), 1..12),
        pick in 0usize..12,
        mask in any::<u64>(),
    ) {
        let mut dit = Dit::new();
        let server = DirectoryServer::new(ServerConfig {
            validate_schema: false,
            read_throttle_per_sec: None,
            ..Default::default()
        });
        let conn = server.connect_anonymous();
        for dn in &dns {
            let entry = LdapEntry::new(dn.clone()).with("objectClass", "device");
            let _ = dit.add(entry.clone());
            let _ = conn.add(entry);
        }
        let dn = &dns[pick % dns.len()];
        let spelled = recased(dn, mask);
        let refusal = std::mem::discriminant::<dirserv::dit::DitError>;
        let named = |hits: Vec<&Arc<LdapEntry>>| -> Vec<String> {
            hits.iter().map(|e| e.dn.to_string()).collect()
        };
        let found = |d: &Dn| {
            let all = LdapFilter::match_all();
            let scopes = [Scope::Base, Scope::OneLevel, Scope::Subtree].map(|scope| {
                (
                    dit.search(d, scope, &all, 0).map(named).map_err(|e| refusal(&e)),
                    dit.search_scan(d, scope, &all, 0).map(named).map_err(|e| refusal(&e)),
                )
            });
            let read = conn.read(d, 0).map(|(e, _)| e.dn.to_string()).map_err(|(code, _)| code);
            (dit.get(d).map(|e| e.dn.to_string()), read, scopes)
        };
        prop_assert_eq!(found(&spelled), found(dn), "{} spelled {}", dn, spelled);
        let added = |d: &Dn| {
            let entry = LdapEntry::new(d.clone()).with("objectClass", "device");
            dit.clone().add(entry).map_err(|e| refusal(&e))
        };
        prop_assert_eq!(added(&spelled), added(dn));
        let deleted = |d: &Dn| {
            let mut after = dit.clone();
            let gone = after.delete(d).map(|e| e.dn.to_string()).map_err(|e| refusal(&e));
            (gone, after.iter().map(|e| e.dn.to_string()).collect::<Vec<_>>())
        };
        prop_assert_eq!(deleted(&spelled), deleted(dn));
    }
}

/// The oracle again, on the shape the posting-range walk exists for: one
/// equality value held by an entry in *every* department, searched under a
/// deep base whose sibling's key shares its text prefix (`ou=d1` vs
/// `ou=d10`).
#[test]
fn equality_filter_under_a_deep_base_matches_scan_oracle() {
    let mut dit = Dit::new();
    // The root entry holds the value too: its key is the empty string, and
    // every key is below it.
    dit.add(LdapEntry::new(Dn::root()).with("cn", "l3"))
        .unwrap();
    let org = Dn::parse("o=grid").unwrap();
    dit.add(LdapEntry::new(org.clone()).with("o", "grid"))
        .unwrap();
    for d in 0..40 {
        let dept = org.child(Rdn::new("ou", format!("d{d}")));
        dit.add(LdapEntry::new(dept.clone()).with("ou", format!("d{d}")))
            .unwrap();
        let unit = dept.child(Rdn::new("ou", "unit"));
        dit.add(LdapEntry::new(unit.clone()).with("ou", "unit"))
            .unwrap();
        for leaf in ["l3", "l4"] {
            for parent in [&dept, &unit] {
                dit.add(LdapEntry::new(parent.child(Rdn::new("cn", leaf))).with("cn", leaf))
                    .unwrap();
            }
        }
    }
    let filter = LdapFilter::parse("(cn=l3)").unwrap();
    let bases = [
        "",
        "o=grid",
        "ou=d1,o=grid",
        "ou=unit,ou=d1,o=grid",
        "cn=l3,ou=unit,ou=d1,o=grid",
        "cn=l4,ou=unit,ou=d1,o=grid",
    ];
    for base in bases.map(|b| Dn::parse(b).unwrap()) {
        for scope in [Scope::Base, Scope::OneLevel, Scope::Subtree] {
            for limit in [0, 1] {
                let dns = |hits: Vec<&Arc<LdapEntry>>| -> Vec<String> {
                    hits.iter().map(|e| e.dn.normalized()).collect()
                };
                assert_eq!(
                    dns(dit.search(&base, scope, &filter, limit).unwrap()),
                    dns(dit.search_scan(&base, scope, &filter, limit).unwrap()),
                    "base {base} scope {scope:?} limit {limit}"
                );
            }
        }
    }
    // One-level under a department finds its own `cn=l3` and nobody else's.
    let d1 = Dn::parse("ou=d1,o=grid").unwrap();
    let hits = dit.search(&d1, Scope::OneLevel, &filter, 0).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].dn.normalized(), "cn=l3,ou=d1,o=grid");
}

/// The diffing `update`, case by case: what the proptest above draws at
/// random, spelt out.
#[test]
fn update_edits_only_the_pairs_that_left_or_arrived() {
    let mut d = Dit::new();
    for (dn, class) in [
        ("o=emory", "organization"),
        ("ou=mathcs,o=emory", "organizationalUnit"),
        ("cn=mokey,ou=mathcs,o=emory", "device"),
    ] {
        let dn = Dn::parse(dn).unwrap();
        let rdn = dn.rdn().unwrap();
        let entry = LdapEntry::new(dn.clone())
            .with("objectClass", class)
            .with(&rdn.attr(), rdn.value());
        d.add(entry).unwrap();
    }
    let dn = Dn::parse("cn=mokey,ou=mathcs,o=emory").unwrap();
    let found = |d: &Dit, raw: &str| {
        let f = LdapFilter::parse(raw).unwrap();
        d.search(&Dn::root(), Scope::Subtree, &f, 0).unwrap().len()
    };
    // A value that changes case alone folds to the posting it had.
    d.update(
        LdapEntry::new(dn.clone())
            .with("OBJECTCLASS", "Device")
            .with("cn", "MOKEY")
            .with("cn", "mokey"),
    )
    .unwrap();
    assert_eq!(found(&d, "(objectclass=device)"), 1);
    assert_eq!(found(&d, "(cn=mokey)"), 1);
    assert_eq!(d.get(&dn).unwrap().first("objectclass"), Some("Device"));
    // One of two same-folding values goes: the pair is still held.
    d.update(
        LdapEntry::new(dn.clone())
            .with("objectClass", "device")
            .with("cn", "Mokey"),
    )
    .unwrap();
    assert_eq!(found(&d, "(cn=mokey)"), 1);
    // A value moves to another attribute; an attribute goes.
    d.update(LdapEntry::new(dn.clone()).with("description", "mokey"))
        .unwrap();
    assert_eq!(found(&d, "(cn=mokey)"), 0);
    assert_eq!(found(&d, "(objectClass=device)"), 0);
    assert_eq!(found(&d, "(description=MOKEY)"), 1);
}

/// What `the_record_matches_its_oracle` draws from: ids in several
/// spellings — ones the record writes as one byte, ones it spells out, one
/// longer than a one-digit length, the empty id — and values with case
/// variants, DN-escaped characters, the empty value and one longer than
/// 65 535 bytes, so that no length prefix can truncate it.
const ORACLE_IDS: [&str; 9] = [
    "cn",
    "CN",
    "objectClass",
    "objectclass",
    "rndiValue",
    "x-Site",
    "X-SITE",
    "x-an-attribute-type-longer-than-thirty-two-bytes",
    "",
];

fn oracle_value(at: usize) -> String {
    match at {
        0 => "a".into(),
        1 => "A".into(),
        2 => "b".into(),
        3 => String::new(),
        4 => r"a\,b=c".into(),
        5 => r"A\,B=C".into(),
        6 => "é, +;".into(),
        7 => "z".repeat(65_537),
        _ => "Z".repeat(65_537),
    }
}

/// The entry as it was before its attributes became one record — a list
/// sorted by case-folded id, each attribute owning its id and its values —
/// with values kept as a set under ASCII case folding, as the record keeps
/// them. Kept here and nowhere else.
#[derive(Clone, Debug, Default)]
struct OracleEntry {
    attrs: Vec<(String, Vec<String>)>,
}

fn cmp_folded(a: &str, b: &str) -> std::cmp::Ordering {
    a.to_ascii_lowercase().cmp(&b.to_ascii_lowercase())
}

impl OracleEntry {
    fn position(&self, id: &str) -> Result<usize, usize> {
        self.attrs
            .binary_search_by(|(held, _)| cmp_folded(held, id))
    }

    fn get(&self, id: &str) -> Option<&(String, Vec<String>)> {
        self.position(id).ok().map(|at| &self.attrs[at])
    }

    fn holds(values: &[String], value: &str) -> bool {
        values.iter().any(|v| v.eq_ignore_ascii_case(value))
    }

    fn add_value(&mut self, id: &str, value: &str) {
        match self.position(id) {
            Ok(at) if Self::holds(&self.attrs[at].1, value) => {}
            Ok(at) => self.attrs[at].1.push(value.into()),
            Err(at) => self.attrs.insert(at, (id.into(), vec![value.into()])),
        }
    }

    fn replace(&mut self, id: &str, values: &[String]) {
        let mut distinct: Vec<String> = Vec::new();
        for v in values {
            if !Self::holds(&distinct, v) {
                distinct.push(v.clone());
            }
        }
        match (self.position(id), distinct.is_empty()) {
            (Ok(at), false) => self.attrs[at] = (id.into(), distinct),
            (Ok(at), true) => drop(self.attrs.remove(at)),
            (Err(at), false) => self.attrs.insert(at, (id.into(), distinct)),
            (Err(_), true) => {}
        }
    }

    fn remove_values(&mut self, id: &str, values: &[String]) {
        let Ok(at) = self.position(id) else {
            return;
        };
        self.attrs[at]
            .1
            .retain(|v| !values.is_empty() && !Self::holds(values, v));
        if self.attrs[at].1.is_empty() {
            self.attrs.remove(at);
        }
    }

    /// `filter` evaluated over the oracle: each atom over the values of its
    /// attribute one at a time, as a one-value entry answers it.
    fn matches(&self, filter: &LdapFilter) -> bool {
        let atom = |attr: &str| {
            let values = self.get(attr).map_or(&[][..], |(_, values)| values);
            values
                .iter()
                .any(|v| filter.matches(&LdapEntry::new(Dn::root()).with(attr, v)))
        };
        match filter {
            LdapFilter::And(fs) => fs.iter().all(|f| self.matches(f)),
            LdapFilter::Or(fs) => fs.iter().any(|f| self.matches(f)),
            LdapFilter::Not(f) => !self.matches(f),
            LdapFilter::Present(a) => self.get(a).is_some(),
            LdapFilter::Equality(a, _)
            | LdapFilter::Greater(a, _)
            | LdapFilter::Less(a, _)
            | LdapFilter::Approx(a, _) => atom(a),
            LdapFilter::Substrings { attr, .. } => atom(attr),
        }
    }
}

/// One builder call, its id and values by their place in `ORACLE_IDS` and
/// `oracle_value`.
#[derive(Clone, Debug)]
enum EntryStep {
    With(usize, usize),
    AddValue(usize, usize),
    Replace(usize, Vec<usize>),
    RemoveValues(usize, Vec<usize>),
}

fn any_entry_step() -> impl Strategy<Value = EntryStep> {
    let id = || 0..ORACLE_IDS.len();
    // The two long values are drawn now and then, not one step in four.
    let value = || prop_oneof![12 => 0usize..7, 1 => 7usize..9];
    let values = || proptest::collection::vec(value(), 0..4);
    prop_oneof![
        3 => (id(), value()).prop_map(|(i, v)| EntryStep::With(i, v)),
        3 => (id(), value()).prop_map(|(i, v)| EntryStep::AddValue(i, v)),
        2 => (id(), values()).prop_map(|(i, vs)| EntryStep::Replace(i, vs)),
        2 => (id(), values()).prop_map(|(i, vs)| EntryStep::RemoveValues(i, vs)),
    ]
}

/// The filters every state is matched against: each kind of atom over ids
/// and values of the alphabet, and the three combinators.
fn oracle_filters() -> Vec<LdapFilter> {
    let mut filters = Vec::new();
    for id in ORACLE_IDS.iter().map(|id| id.to_string()) {
        filters.push(LdapFilter::Present(id.clone()));
        for v in ["a", "", r"a\,b=c"] {
            filters.push(LdapFilter::Equality(id.clone(), v.into()));
        }
    }
    for id in ["CN", "x-site"].map(String::from) {
        filters.push(LdapFilter::Greater(id.clone(), "a".into()));
        filters.push(LdapFilter::Less(id.clone(), "a".into()));
        filters.push(LdapFilter::Approx(id.clone(), "A".into()));
        filters.push(LdapFilter::Substrings {
            attr: id,
            initial: Some("z".into()),
            any: vec![],
            final_: None,
        });
    }
    let cn = LdapFilter::Equality("cn".into(), "A".into());
    let class = LdapFilter::Present("objectclass".into());
    filters.push(LdapFilter::And(vec![cn.clone(), class.clone()]));
    filters.push(LdapFilter::Or(vec![cn.clone(), class]));
    filters.push(LdapFilter::Not(Box::new(cn)));
    filters
}

/// Where the entry built by `steps` first disagrees with the oracle built
/// by the same steps, a panic counting as a disagreement so that it is
/// shrunk and its seed printed too; `None` when it never does.
fn record_divergence(steps: &[EntryStep]) -> Option<String> {
    std::panic::catch_unwind(|| first_divergence(steps))
        .unwrap_or_else(|_| Some("the entry panicked (message above)".into()))
}

fn first_divergence(steps: &[EntryStep]) -> Option<String> {
    let dn = Dn::parse(r"cn=a\,b=c,o=x\\y").unwrap();
    let values = |at: &[usize]| -> Vec<String> { at.iter().map(|&v| oracle_value(v)).collect() };
    let (mut entry, mut oracle) = (LdapEntry::new(dn.clone()), OracleEntry::default());
    let filters = oracle_filters();
    for (i, step) in steps.iter().enumerate() {
        match step {
            EntryStep::With(id, v) => {
                entry = entry.with(ORACLE_IDS[*id], oracle_value(*v));
                oracle.add_value(ORACLE_IDS[*id], &oracle_value(*v));
            }
            EntryStep::AddValue(id, v) => {
                entry.add_value(ORACLE_IDS[*id], oracle_value(*v));
                oracle.add_value(ORACLE_IDS[*id], &oracle_value(*v));
            }
            EntryStep::Replace(id, vs) => {
                entry.replace(ORACLE_IDS[*id], values(vs));
                oracle.replace(ORACLE_IDS[*id], &values(vs));
            }
            EntryStep::RemoveValues(id, vs) => {
                entry.remove_values(ORACLE_IDS[*id], &values(vs));
                oracle.remove_values(ORACLE_IDS[*id], &values(vs));
            }
        }
        let attrs: Vec<(String, Vec<String>)> = entry
            .attrs()
            .map(|a| (a.id().into(), a.values().map(String::from).collect()))
            .collect();
        if attrs != oracle.attrs {
            return Some(format!("after step {i}: attrs differ"));
        }
        let pairs: Vec<(&str, &str)> = entry.pairs().collect();
        let want: Vec<(&str, &str)> = oracle
            .attrs
            .iter()
            .flat_map(|(id, vs)| vs.iter().map(move |v| (id.as_str(), v.as_str())))
            .collect();
        if pairs != want {
            return Some(format!("after step {i}: pairs differ"));
        }
        for id in ORACLE_IDS {
            let got = entry
                .get(id)
                .map(|a| (a.id().to_string(), a.values().map(String::from).collect()));
            if got.as_ref() != oracle.get(id) {
                return Some(format!("after step {i}: get({id:?}) differs"));
            }
            let first = oracle.get(id).map(|(_, vs)| vs[0].as_str());
            if (entry.first(id), entry.has(id)) != (first, first.is_some()) {
                return Some(format!("after step {i}: first/has({id:?}) differ"));
            }
            for v in (0..9).map(oracle_value) {
                let held = oracle
                    .get(id)
                    .is_some_and(|(_, vs)| OracleEntry::holds(vs, &v));
                if entry.has_value(id, &v) != held {
                    return Some(format!("after step {i}: has_value({id:?}, …) differs"));
                }
            }
        }
        for (at, filter) in filters.iter().enumerate() {
            if filter.matches(&entry) != oracle.matches(filter) {
                return Some(format!("after step {i}: filter {at} ({filter:?}) differs"));
            }
        }
        for ids in [&["CN", "x-site"][..], &["rndivalue", "", "RNDIVALUE"], &[]] {
            let ids: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
            let projected = entry.project(&ids);
            let mut want = oracle.clone();
            want.attrs
                .retain(|(id, _)| ids.iter().any(|k| k.eq_ignore_ascii_case(id)));
            let got: Vec<(String, Vec<String>)> = projected
                .attrs()
                .map(|a| (a.id().into(), a.values().map(String::from).collect()))
                .collect();
            if got != want.attrs || projected.dn != dn {
                return Some(format!("after step {i}: project({ids:?}) differs"));
            }
        }
        // The record is canonical: the same content, built another way,
        // is an equal entry.
        let rebuilt = oracle
            .attrs
            .iter()
            .fold(LdapEntry::new(dn.clone()), |mut e, (id, vs)| {
                e.replace(id, vs.clone());
                e
            });
        if rebuilt != entry {
            return Some(format!(
                "after step {i}: the entry rebuilt from the oracle differs"
            ));
        }
    }
    None
}

/// `steps` less every step it still fails without, one at a time.
fn shrink_steps(mut steps: Vec<EntryStep>) -> Vec<EntryStep> {
    let mut i = 0;
    while i < steps.len() {
        let mut fewer = steps.clone();
        fewer.remove(i);
        if record_divergence(&fewer).is_some() {
            steps = fewer;
        } else {
            i += 1;
        }
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `LdapEntry`'s one record against the attribute list it replaced:
    /// every accessor and `LdapFilter::matches` agree after every builder
    /// call. A failure prints the runner's seed and the sequence shrunk to
    /// the steps it still fails without.
    #[test]
    fn the_record_matches_its_oracle(steps in proptest::collection::vec(any_entry_step(), 0..24)) {
        if let Some(why) = record_divergence(&steps) {
            let shrunk = shrink_steps(steps);
            let why = record_divergence(&shrunk).unwrap_or(why);
            prop_assert!(false, "{why}\nshrunk sequence: {shrunk:#?}");
        }
    }
}

/// A server holding `o=emory` and `ou=dcl,o=emory`.
fn emory() -> DirectoryServer {
    let server = DirectoryServer::new(ServerConfig {
        read_throttle_per_sec: None,
        ..Default::default()
    });
    let conn = server.connect_anonymous();
    for (dn, class, attr, value) in [
        ("o=emory", "organization", "o", "emory"),
        ("ou=dcl,o=emory", "organizationalUnit", "ou", "dcl"),
    ] {
        let entry = LdapEntry::new(Dn::parse(dn).unwrap())
            .with("objectClass", class)
            .with(attr, value);
        conn.add(entry).unwrap();
    }
    server
}

#[test]
fn an_attributes_values_are_a_set() {
    let conn = emory().connect_anonymous();
    let dn = Dn::parse("ou=dcl,o=emory").unwrap();
    let add = |v: &str| Modification::Add("description".into(), vec![v.into()]);
    conn.modify(&dn, &[add("a")]).unwrap();
    conn.modify(&dn, &[add("A"), add("b"), add("B")]).unwrap();
    let (entry, _) = conn.read(&dn, 0).unwrap();
    let held: Vec<&str> = entry.get("description").unwrap().values().collect();
    assert_eq!(held, ["a", "b"]);
}

#[test]
fn an_entry_holds_its_rdns_value() {
    let server = emory();
    let conn = server.connect_anonymous();
    let dn = Dn::parse("cn=y,ou=dcl,o=emory").unwrap();
    let device = |cn: &str| {
        LdapEntry::new(dn.clone())
            .with("objectClass", "device")
            .with("cn", cn)
    };
    let code = |result: LdapResult<()>| result.map_err(|(code, _)| code);
    let refused = Err(ResultCode::NamingViolation);
    assert_eq!(code(conn.add(device("z"))), refused);
    assert_eq!(code(conn.replace_traced(device("z"), None)), refused);
    assert_eq!(server.entry_count(), 2, "nothing was stored");

    conn.add(device("Y")).unwrap();
    let replace = Modification::Replace("cn".into(), vec!["z".into()]);
    let add_z = Modification::Add("cn".into(), vec!["z".into()]);
    let drop_y = Modification::Delete("cn".into(), vec!["y".into()]);
    assert_eq!(code(conn.modify(&dn, &[replace])), refused);
    assert_eq!(code(conn.modify(&dn, &[add_z, drop_y])), refused);
    assert_eq!(
        code(conn.replace_traced(device("z").with("cn", "y"), None)),
        Ok(())
    );
    // What the rule keeps true: a search for the RDN's value finds the entry.
    let cn_y = LdapFilter::parse("(cn=y)").unwrap();
    let base = Dn::parse("o=emory").unwrap();
    let found = conn.search(&base, Scope::Subtree, &cn_y, None, 0).unwrap();
    assert_eq!(found.entries.len(), 1);
    assert_eq!(found.entries[0].dn, dn);
}
