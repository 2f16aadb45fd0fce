//! One server, one protocol: many threads multiplexed on one connection
//! with cross-wire trace linking, admin scrapes over the data socket, and
//! a wire tap showing a traced call ships its context exactly once.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;

use parking_lot::Mutex;
use rndi_core::context::ContextExt;
use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::name::CompoundSyntax;
use rndi_core::op::{NamingOp, OpKind, OpOutcome, OpPayload};
use rndi_core::spi::ProviderBackend;
use rndi_core::value::BoundValue;
use rndi_net::conn::{InboundMsg, ResponseBody, ServerConn};
use rndi_net::proto::WireOutcome;
use rndi_net::{NetClient, NetServer, ServerConfig};
use rndi_obs::TraceCtx;

/// A minimal in-memory backend: enough of the op vocabulary for bind /
/// rebind / lookup, so the transport can be exercised without pulling a
/// full provider crate into rndi-net's dev graph.
#[derive(Default)]
struct MemBackend {
    map: Mutex<BTreeMap<String, StoredEntry>>,
}

enum StoredEntry {
    Value(BoundValue),
    Wire(Vec<u8>),
}

impl ProviderBackend for MemBackend {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        let name = op.name.to_string();
        match op.kind {
            OpKind::Bind | OpKind::Rebind | OpKind::BindWithAttrs | OpKind::RebindWithAttrs => {
                let entry = match &op.payload {
                    OpPayload::Value(v) => StoredEntry::Value(v.clone()),
                    OpPayload::Wire { bytes, .. } => StoredEntry::Wire(bytes.clone()),
                    other => {
                        return Err(NamingError::unsupported(format!(
                            "mem backend bind payload {other:?}"
                        )))
                    }
                };
                let mut map = self.map.lock();
                if matches!(op.kind, OpKind::Bind | OpKind::BindWithAttrs)
                    && map.contains_key(&name)
                {
                    return Err(NamingError::already_bound(name));
                }
                map.insert(name, entry);
                Ok(OpOutcome::Done)
            }
            OpKind::Lookup => match self.map.lock().get(&name) {
                Some(StoredEntry::Value(v)) => Ok(OpOutcome::Value(v.clone())),
                Some(StoredEntry::Wire(bytes)) => Ok(OpOutcome::Wire(bytes.clone())),
                None => Err(NamingError::not_found(name)),
            },
            OpKind::Unbind => {
                self.map.lock().remove(&name);
                Ok(OpOutcome::Done)
            }
            other => Err(NamingError::unsupported(format!("mem backend {other:?}"))),
        }
    }

    fn provider_id(&self) -> String {
        "mem".to_string()
    }

    fn compound_syntax(&self) -> CompoundSyntax {
        CompoundSyntax::path()
    }
}

fn serve() -> NetServer {
    NetServer::with_config(
        Arc::new(MemBackend::default()),
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            max_conns: 64,
            deadline_ms: 5_000,
            shards: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

#[test]
fn many_threads_multiplex_one_connection() {
    let server = serve();
    let addr = server.local_addr().to_string();

    // One connection (pool of 1), deep pipeline: all threads' requests
    // interleave on a single socket and responses are matched by ID.
    let env = Environment::new()
        .with(keys::NET_CLIENT_POOL_SIZE, "1")
        .with(keys::NET_CLIENT_PIPELINE_DEPTH, "64");
    let client = NetClient::connect(addr.clone(), &env).unwrap();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let client = client.clone();
            std::thread::spawn(move || {
                for i in 0..32 {
                    let key = format!("t{t}-k{i}");
                    client
                        .bind_str(&key, format!("t{t}-v{i}").as_str())
                        .unwrap();
                    let got = client.lookup_str(&key).unwrap();
                    assert_eq!(got.as_str(), Some(format!("t{t}-v{i}").as_str()));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker thread");
    }

    // Linked traces: every client-layer lookup span still in the ring for
    // this endpoint has a server-side child span in the same trace.
    let ring = rndi_obs::trace::ring();
    let client_label = format!("net-client:{addr}");
    let client_spans: Vec<_> = ring
        .snapshot()
        .into_iter()
        .filter(|s| s.layer == "client" && s.provider.as_ref() == client_label && s.op == "lookup")
        .collect();
    assert!(!client_spans.is_empty(), "lookups recorded client spans");
    for span in &client_spans {
        let linked = ring
            .trace(span.trace_id)
            .iter()
            .any(|s| s.layer == "server" && s.parent_span == span.span_id);
        assert!(
            linked,
            "server span links to client span {} in trace {}",
            span.span_id, span.trace_id
        );
    }

    server.shutdown();
}

#[test]
fn a_traced_call_ships_its_context_once_in_the_envelope() {
    // A wire tap in place of the server: the sans-IO ServerConn decodes
    // exactly the bytes NetClient put on the socket.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let tap = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut machine = ServerConn::new();
        let mut wire = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = sock.read(&mut buf).unwrap();
            assert!(n > 0, "client hung up before sending a call");
            wire.extend_from_slice(&buf[..n]);
            if let Some(req) = machine.receive(&buf[..n]).unwrap().pop() {
                machine
                    .push_response(req.req_id, ResponseBody::Ok(WireOutcome::Done))
                    .unwrap();
                sock.write_all(machine.pending_out()).unwrap();
                return (req.msg, wire);
            }
        }
    });

    let client = NetClient::new(addr, &Environment::new()).unwrap();
    let parent = TraceCtx::root();
    let mut op = NamingOp::unbind("k".into());
    op.set_trace_ctx(&parent);
    client.execute(&op).unwrap();

    let (msg, wire) = tap.join().expect("tap thread");
    let InboundMsg::Call { trace, .. } = msg else {
        panic!("expected a call, got {msg:?}");
    };
    let trace = trace.expect("envelope carries the context");
    assert_eq!(trace.trace_id, parent.trace_id);
    assert_eq!(
        trace.parent_span, parent.span_id,
        "the context on the wire is the client span, a child of the caller's"
    );
    assert!(
        !wire.windows(9).any(|w| w == b"obs.trace"),
        "no second, textual copy anywhere in the request bytes"
    );
}

#[test]
fn admin_scrape_serves_metrics_traces_and_health_over_the_data_socket() {
    // A dedicated registry isolates this server's series from every other
    // test in the binary: the scraped totals are exactly ours.
    let registry = std::sync::Arc::new(rndi_obs::Registry::new());
    let server = NetServer::with_registry(
        Arc::new(MemBackend::default()),
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            max_conns: 64,
            deadline_ms: 5_000,
            shards: 2,
            ..ServerConfig::default()
        },
        registry.clone(),
    )
    .expect("server starts");
    let addr = server.local_addr().to_string();

    let client = NetClient::new(addr, &Environment::new()).unwrap();
    for i in 0..8 {
        let key = format!("adm-{i}");
        client
            .execute(&NamingOp::rebind(key.as_str().into(), BoundValue::str("x")))
            .unwrap();
        client
            .execute(&NamingOp::lookup(key.as_str().into()))
            .unwrap();
    }

    // Metrics arrive as a mergeable snapshot mirroring the live registry.
    let snap = client.scrape_metrics().unwrap();
    assert_eq!(
        snap.counter_total(rndi_obs::metrics::names::NET_REQUESTS),
        16,
        "scraped request totals count exactly this server's ops"
    );
    assert_eq!(
        snap.counter_total(rndi_obs::metrics::names::NET_REQUESTS),
        registry.counter_total(rndi_obs::metrics::names::NET_REQUESTS),
    );

    // Health reflects the same ledger plus liveness.
    let health = client.scrape_health().unwrap();
    assert_eq!(health.instance, "net:mem");
    assert_eq!(health.requests_ok, 16);
    assert_eq!(health.requests_err, 0);
    assert!(health.max_conns == 64 && health.error_rate() == 0.0);

    // The remote ring yields server spans; one trace pulls coherently.
    let spans = client.dump_spans().unwrap();
    let server_span = spans
        .iter()
        .find(|s| s.layer == "server" && s.provider.as_ref() == "net:mem")
        .expect("server recorded spans");
    let trace = client.dump_trace(server_span.trace_id).unwrap();
    assert!(!trace.is_empty());
    assert!(trace.iter().all(|s| s.trace_id == server_span.trace_id));
    assert!(!client.dump_slowest(2).unwrap().is_empty());

    server.shutdown();
}
