//! What the directory holds per entry, as a budget: the live heap bytes one
//! bound leaf of the repo benchmark's `fed_resolve` shape leaves behind in
//! `dirserv`, and the reads that must not touch the heap at all. Lives in
//! its own test binary because `common` installs a counting
//! `#[global_allocator]`.

use std::sync::Arc;

use rndi::core::prelude::*;
use rndi::ldap::{DirectoryServer, Dit, Dn, LdapEntry, LdapFilter, ServerConfig};
use rndi::providers::common::MsClock;
use rndi::providers::LdapFactory;

mod common;
use common::{count_during, live_bytes_during};

struct ZeroClock;
impl MsClock for ZeroClock {
    fn now_ms(&self) -> u64 {
        0
    }
}

const DEPTS: u32 = 200;
const LEAVES_PER_DEPT: u32 = 10;

fn server() -> DirectoryServer {
    let server = DirectoryServer::new(ServerConfig {
        read_throttle_per_sec: None,
        ..Default::default()
    });
    server
        .connect_anonymous()
        .add(
            LdapEntry::new(Dn::parse("o=bench").unwrap())
                .with("objectClass", "organization")
                .with("o", "bench"),
        )
        .unwrap();
    server
}

#[test]
fn a_bound_leaf_stays_inside_its_byte_budget() {
    const BYTES_PER_LEAF_BUDGET: i64 = 550;

    let server = server();
    let factory = LdapFactory::new(Arc::new(ZeroClock));
    factory.register_host("dir", server.clone(), Dn::parse("o=bench").unwrap());
    let registry = Arc::new(ProviderRegistry::new());
    registry.register(factory);
    let ctx = InitialContext::new(registry, Environment::new()).unwrap();

    for dept in 0..DEPTS {
        ctx.create_subcontext(&format!("ldap://dir/ou=d{dept:04}"))
            .unwrap();
    }
    // One leaf in place before counting, and written often enough to fill
    // the process's (bounded) span ring: the pipeline, its instruments, the
    // index's per-attribute maps and every span slot exist from then on, so
    // what is counted below is what the directory keeps.
    for round in 0..2 * rndi::obs::trace::DEFAULT_RING_CAPACITY {
        ctx.rebind("ldap://dir/ou=d0000/warm", format!("{round:<64}"))
            .unwrap();
    }

    // 2 000 distinct 64-byte values, as `fed_resolve` binds them.
    let value = |dept: u32, leaf: u32| format!("{:<64}", format!("value {dept:04}/{leaf}"));
    let ((), live) = live_bytes_during(|| {
        for dept in 0..DEPTS {
            for leaf in 0..LEAVES_PER_DEPT {
                ctx.bind(
                    &format!("ldap://dir/ou=d{dept:04}/l{leaf}"),
                    value(dept, leaf),
                )
                .unwrap();
            }
        }
    });
    let leaves = i64::from(DEPTS * LEAVES_PER_DEPT);
    assert_eq!(
        server.entry_count() as i64,
        1 + i64::from(DEPTS) + 1 + leaves
    );
    let per_leaf = live / leaves;
    println!(
        "dirserv footprint: {per_leaf} live bytes per bound leaf \
         ({leaves} leaves, budget {BYTES_PER_LEAF_BUDGET})"
    );
    assert!(
        per_leaf <= BYTES_PER_LEAF_BUDGET,
        "a bound leaf holds {per_leaf} bytes, budget {BYTES_PER_LEAF_BUDGET}"
    );
    assert_eq!(
        ctx.lookup("ldap://dir/ou=d0199/l9").unwrap().as_str(),
        Some(value(199, 9).as_str())
    );
}

#[test]
fn reads_of_lower_case_names_touch_no_heap() {
    let leaf = |i: u32| Dn::parse(&format!("cn=l{i},o=bench")).unwrap();
    let entry = |i: u32| {
        LdapEntry::new(leaf(i))
            .with("objectClass", "device")
            .with("cn", format!("l{i}"))
            .with("owner", "dcl")
    };

    // The index probe, alone and as a conjunct: a posting one entry holds
    // and one all of them share.
    let mut dit = Dit::new();
    dit.add(LdapEntry::new(Dn::parse("o=bench").unwrap()).with("o", "bench"))
        .unwrap();
    for i in 0..8 {
        dit.add(entry(i)).unwrap();
    }
    let dn = leaf(3);
    for raw in ["(cn=l3)", "(owner=dcl)", "(&(owner=dcl)(cn=l3))"] {
        let filter = LdapFilter::parse(raw).unwrap();
        dit.search_base(&dn, &filter).unwrap(); // the thread's key text
        let (hit, allocated) = count_during(|| dit.search_base(&dn, &filter).unwrap().is_some());
        assert!(hit, "{raw} finds {dn}");
        assert_eq!(allocated.calls, 0, "probing {raw} allocated");
    }

    // The server's read: the entry comes back shared, not copied.
    let server = server();
    let conn = server.connect_anonymous();
    for i in 0..8 {
        conn.add(entry(i)).unwrap();
    }
    conn.read(&dn, 0).unwrap();
    let (read, allocated) = count_during(|| conn.read(&dn, 0).unwrap());
    assert_eq!(read.0.first("cn"), Some("l3"));
    assert_eq!(allocated.calls, 0, "Connection::read allocated");
}
