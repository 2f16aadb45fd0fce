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

/// The span ring is process-wide, so a span one test's thread records may
/// be evicted, and freed, by another's: the tests that count live bytes
/// take turns.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

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

/// A context on `server`'s `o=bench`, with `depts` departments made and
/// one leaf in place, written often enough to fill the process's (bounded)
/// span ring: the pipeline, its instruments, the index's per-attribute maps
/// and every span slot exist from then on, so what is counted after is what
/// the directory keeps.
fn warmed_context(server: &DirectoryServer, depts: u32) -> InitialContext {
    let factory = LdapFactory::new(Arc::new(ZeroClock));
    factory.register_host("dir", server.clone(), Dn::parse("o=bench").unwrap());
    let registry = Arc::new(ProviderRegistry::new());
    registry.register(factory);
    let ctx = InitialContext::new(registry, Environment::new()).unwrap();
    for dept in 0..depts {
        ctx.create_subcontext(&format!("ldap://dir/ou=d{dept:04}"))
            .unwrap();
    }
    for round in 0..2 * rndi::obs::trace::DEFAULT_RING_CAPACITY {
        ctx.rebind("ldap://dir/ou=d0000/warm", format!("{round:<64}"))
            .unwrap();
    }
    ctx
}

/// A distinct 64-byte value, as `fed_resolve` binds them.
fn value(round: u32, dept: u32, leaf: u32) -> String {
    format!("{:<64}", format!("value {round}:{dept:04}/{leaf}"))
}

#[test]
fn a_bound_leaf_stays_inside_its_byte_budget() {
    // Measured 250 once an entry became one block; 331 while its key, DN
    // text, `Arc` and record were four, 383 while the equality index filed
    // the payload, 392 while a value's text was its JSON.
    const BYTES_PER_LEAF_BUDGET: i64 = 250;

    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = server();
    let ctx = warmed_context(&server, DEPTS);
    let ((), live) = live_bytes_during(|| {
        for dept in 0..DEPTS {
            for leaf in 0..LEAVES_PER_DEPT {
                ctx.bind(
                    &format!("ldap://dir/ou=d{dept:04}/l{leaf}"),
                    value(0, dept, leaf),
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
    println!("ledger: ldap.bytes_per_leaf {per_leaf} {BYTES_PER_LEAF_BUDGET}");
    assert!(
        per_leaf <= BYTES_PER_LEAF_BUDGET,
        "a bound leaf holds {per_leaf} bytes, budget {BYTES_PER_LEAF_BUDGET}"
    );
    assert_eq!(
        ctx.lookup("ldap://dir/ou=d0199/l9").unwrap().as_str(),
        Some(value(0, 199, 9).as_str())
    );
}

#[test]
fn rebinding_every_leaf_does_not_grow_the_directory() {
    // Leaves enough that a map with a slot per leaf stands at over 80 % of
    // its table, where a few rounds of remove-one-insert-one use up its
    // free slots and double it.
    const DEPTS: u32 = 350;
    const ROUNDS: u32 = 4;
    // A rebind frees the entry it replaces; what a round may keep is far
    // below one doubled table (≈ 100 KiB at this size).
    const SLACK_BYTES: i64 = 4096;

    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = server();
    let ctx = warmed_context(&server, DEPTS);
    let bind_all = |round: u32| {
        for dept in 0..DEPTS {
            for leaf in 0..LEAVES_PER_DEPT {
                let name = format!("ldap://dir/ou=d{dept:04}/l{leaf}");
                ctx.rebind(&name, value(round, dept, leaf)).unwrap();
            }
        }
    };
    bind_all(0);
    for round in 1..=ROUNDS {
        let ((), grew) = live_bytes_during(|| bind_all(round));
        println!(
            "dirserv churn: rebinding {} leaves, round {round} grew the live heap {grew} B \
             (slack {SLACK_BYTES})",
            DEPTS * LEAVES_PER_DEPT
        );
        assert!(
            grew <= SLACK_BYTES,
            "round {round} of rebinding every leaf grew the heap {grew} B"
        );
    }
    assert_eq!(
        ctx.lookup("ldap://dir/ou=d0349/l9").unwrap().as_str(),
        Some(value(ROUNDS, DEPTS - 1, 9).as_str())
    );
}

#[test]
fn unbinding_every_leaf_returns_the_heap_it_took() {
    // An entry is one block that the tree and each of its postings hold: a
    // posting left behind pins the whole entry, ≈ 150 B, so 2 000 leaves
    // leaking one each would keep ≈ 300 KB.
    const SLACK_BYTES: i64 = 4096;

    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = server();
    let ctx = warmed_context(&server, DEPTS);
    let before = server.entry_count();
    let leaves = || (0..DEPTS).flat_map(|dept| (0..LEAVES_PER_DEPT).map(move |leaf| (dept, leaf)));
    let ((), kept) = live_bytes_during(|| {
        for (dept, leaf) in leaves() {
            let name = format!("ldap://dir/ou=d{dept:04}/l{leaf}");
            ctx.bind(&name, value(0, dept, leaf)).unwrap();
        }
        assert_eq!(server.entry_count(), before + leaves().count());
        for (dept, leaf) in leaves() {
            ctx.unbind(&format!("ldap://dir/ou=d{dept:04}/l{leaf}"))
                .unwrap();
        }
    });
    println!(
        "dirserv unbind: binding then unbinding {} leaves kept {kept} B of live heap \
         (slack {SLACK_BYTES})",
        leaves().count()
    );
    assert_eq!(server.entry_count(), before);
    assert!(
        kept <= SLACK_BYTES,
        "unbinding every leaf left {kept} B of the heap they took"
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
