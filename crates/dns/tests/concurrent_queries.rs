//! An authoritative server answers its readers side by side: a query takes
//! the zones' read lock and bumps atomic counters, so concurrent queries
//! neither queue behind each other nor lose a count.

use minidns::{AuthServer, DnsName, RecordType, ResourceRecord, Zone};

#[test]
fn four_threads_of_queries_leave_exact_counts() {
    const THREADS: u64 = 4;
    const QUERIES: u64 = 10_000;

    let server = AuthServer::new();
    let mut zone = Zone::new(DnsName::parse("edu").unwrap());
    zone.insert(ResourceRecord::a("emory.edu", 300, [170, 140, 0, 1]));
    zone.insert(ResourceRecord::ns("gatech.edu", 300, "ns.gatech.edu"));
    server.add_zone(zone);
    // One name per outcome: an answer, a referral, a denial.
    let names = ["emory.edu", "x.gatech.edu", "ghost.edu"].map(|n| DnsName::parse(n).unwrap());

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for i in 0..QUERIES {
                    server.query(&names[(i % 3) as usize], RecordType::A);
                }
            });
        }
    });

    let stats = server.stats();
    let per_outcome = |outcome: u64| THREADS * (QUERIES / 3 + u64::from(QUERIES % 3 > outcome));
    assert_eq!(stats.queries, THREADS * QUERIES);
    assert_eq!(stats.referrals, per_outcome(1));
    assert_eq!(stats.nxdomain, per_outcome(2));
}
