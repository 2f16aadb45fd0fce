//! What a pipelined lookup costs the transport, as a budget: the heap
//! allocations of one warmed batch of 16 pipelined lookups, encoded by a
//! `ClientConn`, passed through the production `net::shard` pass to an
//! in-memory backend and decoded back by the `ClientConn`, all on the
//! test's own thread. Lives in its own test binary because `common`
//! installs a counting `#[global_allocator]`.

use std::sync::Arc;
use std::time::Instant;

use rndi::core::context::ContextExt;
use rndi::core::mem::MemContext;
use rndi::core::op::NamingOp;
use rndi::net::conn::ClientConn;
use rndi::net::proto::{self, Envelope, EnvelopeBody};
use rndi::net::shard::{Shard, Shared};
use rndi::net::ServerConfig;
use rndi::obs::metrics::Registry;

mod common;
use common::count_during;

/// Lookups in flight at once, as in the benchmark's `wire_pipelined`.
const BATCH: u64 = 16;

#[test]
fn a_pipelined_lookup_stays_inside_its_allocation_budget() {
    // As measured.
    const BUDGET: u64 = 16;

    let store = MemContext::new();
    store.bind_str("svc", "payload").unwrap();
    let now = Instant::now();
    let shared = Shared::new(
        Arc::new(store),
        ServerConfig::default(),
        Arc::new(Registry::new()),
        1,
        now,
    );
    let mut shard = Shard::new(shared, 0);
    shard.open(1, None, now);
    let mut client = ClientConn::new();
    let op = Box::new(proto::encode_op(&NamingOp::lookup("svc".into())).unwrap());
    let mut batch = || {
        let mut sent = Vec::new();
        for _ in 0..BATCH {
            let call = Envelope {
                req_id: client.next_req_id(),
                body: EnvelopeBody::Call {
                    op: op.clone(),
                    deadline_ms: 0,
                    trace: None,
                },
            };
            sent.extend_from_slice(&client.encode(&call).unwrap());
        }
        shard.received(1, &sent, now).unwrap();
        shard.run(&mut || now);
        let answers = client.receive(shard.outgoing(1)).unwrap();
        shard.consumed(1, shard.outgoing(1).len());
        assert_eq!(answers.len() as u64, BATCH);
        for answer in answers {
            assert!(matches!(answer.body, EnvelopeBody::Ok(_)), "{answer:?}");
        }
    };
    // Enough batches to fill the trace ring (4 096 spans) and every buffer.
    for _ in 0..512 {
        batch();
    }
    let ((), allocated) = count_during(batch);
    let per_lookup = allocated.calls.div_ceil(BATCH);
    println!(
        "allocations: a batch of {BATCH} pipelined lookups {} ({per_lookup} a lookup, budget {BUDGET})",
        allocated.calls
    );
    println!("ledger: net.allocs_per_pipelined_lookup {per_lookup} {BUDGET}");
    assert!(
        per_lookup <= BUDGET,
        "a pipelined lookup made {per_lookup} allocations, budget {BUDGET}"
    );
}
