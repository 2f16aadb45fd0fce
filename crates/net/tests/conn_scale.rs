//! Connection scale: one event-loop shard holds hundreds of live sockets,
//! and every one of them carries traffic.
//!
//! `CONNS` raw v2 connections are all established before a request is
//! sent; then each gets `DEPTH` pipelined lookups, every response must come
//! back on its own connection with its own `req_id` and value, and the
//! server must report all `CONNS` as active while they are open. The
//! client side is the sans-IO `conn::ClientConn` on one thread, so the
//! server is what is being counted. Every read carries a deadline: a server
//! that stops answering fails the test instead of hanging it.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rndi_core::error::Result;
use rndi_core::op::{NamingOp, OpOutcome};
use rndi_core::spi::ProviderBackend;
use rndi_core::value::BoundValue;
use rndi_net::conn::ClientConn;
use rndi_net::proto::{self, Envelope, EnvelopeBody};
use rndi_net::{NetServer, ServerConfig};

/// Live connections held at once. Each costs this process two descriptors
/// (the client's socket and the server's accepted one), and the common
/// soft limit is 1 024, so 256 stays well inside it beside the test
/// harness's own.
const CONNS: usize = 256;
/// Lookups in flight on each connection.
const DEPTH: usize = 4;
/// How long the whole exchange may take before the test fails.
const DEADLINE: Duration = Duration::from_secs(20);

/// Answers a lookup with the name it was asked for, so a response that
/// lands on the wrong request is caught by its value.
struct Echo;

impl ProviderBackend for Echo {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        Ok(OpOutcome::Value(BoundValue::str(op.name.to_string())))
    }

    fn provider_id(&self) -> String {
        "echo".to_string()
    }
}

#[test]
fn one_shard_serves_every_one_of_its_live_connections() {
    let server = NetServer::with_config(
        Arc::new(Echo),
        ServerConfig {
            max_conns: CONNS,
            shards: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();
    let start = Instant::now();

    let mut conns: Vec<(TcpStream, ClientConn)> = (0..CONNS)
        .map(|c| {
            let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("conn {c}: {e}"));
            stream.set_nodelay(true).unwrap();
            stream.set_read_timeout(Some(DEADLINE)).unwrap();
            (stream, ClientConn::new())
        })
        .collect();

    // Every connection is open; now each sends its pipelined batch.
    let mut expected: Vec<HashMap<u64, String>> = Vec::with_capacity(CONNS);
    for (c, (stream, machine)) in conns.iter_mut().enumerate() {
        let mut wire = Vec::new();
        let mut waiting = HashMap::new();
        for k in 0..DEPTH {
            let name = format!("c{c}-k{k}");
            let op = NamingOp::lookup(name.as_str().into());
            let req_id = machine.next_req_id();
            let call = Envelope {
                req_id,
                body: EnvelopeBody::Call {
                    op: Box::new(proto::encode_op(&op).unwrap()),
                    deadline_ms: 0,
                    trace: None,
                },
            };
            wire.extend_from_slice(&machine.encode(&call).unwrap());
            waiting.insert(req_id, name);
        }
        stream
            .write_all(&wire)
            .unwrap_or_else(|e| panic!("conn {c}: write: {e}"));
        expected.push(waiting);
    }

    let mut buf = vec![0u8; 16 * 1024];
    for (c, ((stream, machine), waiting)) in conns.iter_mut().zip(&mut expected).enumerate() {
        while !waiting.is_empty() {
            assert!(start.elapsed() < DEADLINE, "conn {c}: past the deadline");
            let n = stream
                .read(&mut buf)
                .unwrap_or_else(|e| panic!("conn {c}: read: {e}"));
            assert!(
                n > 0,
                "conn {c}: closed by the server with {} unanswered",
                waiting.len()
            );
            for reply in machine.receive(&buf[..n]).unwrap() {
                let name = waiting
                    .remove(&reply.req_id)
                    .unwrap_or_else(|| panic!("conn {c}: unknown req_id {}", reply.req_id));
                let EnvelopeBody::Ok(outcome) = reply.body else {
                    panic!("conn {c}: {name}: {:?}", reply.body);
                };
                match proto::decode_outcome(&outcome).unwrap() {
                    OpOutcome::Value(v) => assert_eq!(v.as_str(), Some(name.as_str()), "conn {c}"),
                    other => panic!("conn {c}: {name}: {other:?}"),
                }
            }
        }
    }

    // Each connection has been answered, so each was accepted, and none
    // has closed.
    assert_eq!(server.health().active_conns, CONNS as u64);
    drop(conns);
    server.shutdown();
}
