//! Client pool hygiene: idle eviction, the hard pool cap, and the
//! `rndi_net_pool_{size,evictions}` metrics — under shard-router fan-out
//! a process holds one `NetClient` per shard, so leaked or immortal
//! pooled sockets multiply by N.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rndi_core::context::ContextExt;
use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::op::{NamingOp, OpKind, OpOutcome, OpPayload};
use rndi_core::spi::ProviderBackend;
use rndi_net::{NetClient, NetServer};
use rndi_obs::metrics::{self, names};

/// Minimal bind/lookup backend (see interop.rs for the full-vocabulary
/// variant; the pool doesn't care what the ops do).
#[derive(Default)]
struct MemBackend {
    map: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl ProviderBackend for MemBackend {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        let name = op.name.to_string();
        match op.kind {
            OpKind::Bind | OpKind::Rebind => {
                let bytes = match &op.payload {
                    OpPayload::Wire { bytes, .. } => bytes.clone(),
                    OpPayload::Value(v) => rndi_core::op::codec::marshal(v)?,
                    other => {
                        return Err(NamingError::unsupported(format!("payload {other:?}")));
                    }
                };
                self.map.lock().insert(name, bytes);
                Ok(OpOutcome::Done)
            }
            OpKind::Lookup => match self.map.lock().get(&name) {
                Some(bytes) => Ok(OpOutcome::Wire(bytes.clone())),
                None => Err(NamingError::not_found(name)),
            },
            other => Err(NamingError::unsupported(format!("mem backend {other:?}"))),
        }
    }

    fn provider_id(&self) -> String {
        "mem".to_string()
    }
}

fn serve() -> NetServer {
    NetServer::bind(Arc::new(MemBackend::default()), &Environment::new()).expect("server starts")
}

fn evictions(endpoint: &str, reason: &str) -> u64 {
    metrics::counter(
        names::NET_POOL_EVICTIONS,
        &[("endpoint", endpoint), ("reason", reason)],
    )
    .get()
}

fn pool_gauge(endpoint: &str) -> i64 {
    metrics::gauge(names::NET_POOL_SIZE, &[("endpoint", endpoint)]).get()
}

#[test]
fn idle_connections_are_evicted_and_metered() {
    let server = serve();
    let addr = server.local_addr().to_string();
    let env = Environment::new()
        .with(keys::NET_CLIENT_POOL_SIZE, "4")
        .with(keys::NET_CLIENT_IDLE_MS, "60");
    let client = NetClient::connect(addr.clone(), &env).unwrap();

    client.bind_str("a", "1").unwrap();
    assert_eq!(client.pooled(), 1, "first call pools its connection");
    assert_eq!(pool_gauge(&addr), 1);

    let before = evictions(&addr, "idle");
    std::thread::sleep(Duration::from_millis(150));
    // The next checkout sweeps the expired connection and dials afresh.
    client.lookup_str("a").unwrap();
    assert_eq!(evictions(&addr, "idle"), before + 1, "idle socket evicted");
    assert_eq!(client.pooled(), 1, "replacement connection pooled");
    assert_eq!(pool_gauge(&addr), 1);

    server.shutdown();
}

#[test]
fn pool_never_exceeds_max_pool_under_fanout() {
    let server = serve();
    let addr = server.local_addr().to_string();
    // Depth 1 makes every concurrent caller want its own connection;
    // max-pool forbids pooling more than 2 of them.
    let env = Environment::new()
        .with(keys::NET_CLIENT_POOL_SIZE, "8")
        .with(keys::NET_CLIENT_MAX_POOL, "2")
        .with(keys::NET_CLIENT_PIPELINE_DEPTH, "1");
    let client = NetClient::connect(addr.clone(), &env).unwrap();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let client = client.clone();
            std::thread::spawn(move || {
                for i in 0..20 {
                    client.rebind_str(&format!("k-{t}-{i}"), "v").unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("writer thread");
    }
    assert!(
        client.pooled() <= 2,
        "pool respects the hard cap (got {})",
        client.pooled()
    );
    assert!(pool_gauge(&addr) <= 2);

    server.shutdown();
}
