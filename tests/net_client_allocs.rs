//! What a lock-step remote call costs the client, as a budget: the heap
//! allocations of one warmed `NetClient` lookup (pool 1, depth 1, as in
//! the benchmark's `wire_lockstep`) on the caller's thread, from encoding
//! the op to decoding the answer. The server's threads are not counted.
//! Lives in its own test binary because `common` installs a counting
//! `#[global_allocator]`.

use std::sync::Arc;

use rndi::core::context::ContextExt;
use rndi::core::env::{keys, Environment};
use rndi::core::mem::MemContext;
use rndi::core::op::{NamingOp, OpOutcome};
use rndi::core::spi::ProviderBackend;
use rndi::net::{NetClient, NetServer};

mod common;
use common::{count_during, fill_trace_ring};

#[test]
fn a_lockstep_call_stays_inside_its_allocation_budget() {
    // As measured.
    const BUDGET: u64 = 9;

    let store = MemContext::new();
    store.bind_str("svc", "payload").unwrap();
    let server = NetServer::bind(Arc::new(store), &Environment::new()).unwrap();
    let env = Environment::new()
        .with(keys::NET_CLIENT_POOL_SIZE, "1")
        .with(keys::NET_CLIENT_PIPELINE_DEPTH, "1");
    let client = NetClient::new(server.local_addr().to_string(), &env).unwrap();
    let op = NamingOp::lookup("svc".into());
    let call = || {
        let out = client.execute(&op).unwrap();
        assert!(matches!(out, OpOutcome::Value(_) | OpOutcome::Wire(_)));
    };
    for _ in 0..64 {
        call();
    }
    fill_trace_ring();

    let most = (0..64).map(|_| count_during(call).1.calls).max().unwrap();
    println!("allocations: a lock-step lookup {most} (budget {BUDGET})");
    println!("ledger: net.allocs_per_lockstep_call {most} {BUDGET}");
    assert!(
        most <= BUDGET,
        "a lock-step lookup made {most} allocations, budget {BUDGET}"
    );
    server.shutdown();
}
