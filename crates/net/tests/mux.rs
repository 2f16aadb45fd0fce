//! What the client's multiplexing promises, over real sockets: a call that
//! times out gives up only itself, a connection that breaks fails every
//! call on it at once, and a reused connection that fails is redialled
//! once. Each test holds the far side with a channel or a scripted peer,
//! never a sleep.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::op::{NamingOp, OpOutcome};
use rndi_core::spi::ProviderBackend;
use rndi_net::conn::{ResponseBody, ServerConn};
use rndi_net::{proto, NetClient, NetServer};
use rndi_obs::metrics::{self, names};

/// Answers a lookup with its own name; a lookup of `slow` only once the
/// test releases it.
struct Gated {
    release: Mutex<mpsc::Receiver<()>>,
}

impl ProviderBackend for Gated {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        let name = op.name.to_string();
        if name == "slow" {
            let _ = self.release.lock().recv();
        }
        Ok(OpOutcome::Wire(name.into_bytes()))
    }

    fn provider_id(&self) -> String {
        "gated".to_string()
    }
}

fn client(addr: &str, deadline_ms: u64) -> NetClient {
    let env = Environment::new()
        .with(keys::NET_DEADLINE_MS, deadline_ms.to_string())
        .with(keys::NET_CLIENT_POOL_SIZE, "1");
    NetClient::new(addr, &env).unwrap()
}

fn lookup(client: &NetClient, name: &str) -> Result<OpOutcome> {
    client.execute(&NamingOp::lookup(name.into()))
}

fn events(addr: &str, event: &str) -> u64 {
    metrics::counter(
        names::NET_CLIENT_EVENTS,
        &[("endpoint", addr), ("event", event)],
    )
    .get()
}

/// Read from `sock` until `n` requests have decoded; their request IDs.
fn requests(sock: &mut TcpStream, conn: &mut ServerConn, n: usize) -> Vec<u64> {
    let mut ids = Vec::new();
    let mut buf = [0u8; 4096];
    while ids.len() < n {
        let got = sock.read(&mut buf).unwrap();
        assert!(got > 0, "the client closed the connection");
        ids.extend(conn.receive(&buf[..got]).unwrap().iter().map(|r| r.req_id));
    }
    ids
}

/// Answer `req_id` with `Done`.
fn answer(sock: &mut TcpStream, conn: &mut ServerConn, req_id: u64) {
    let done = proto::encode_outcome(&OpOutcome::Done).unwrap();
    conn.push_response(req_id, ResponseBody::Ok(done)).unwrap();
    sock.write_all(conn.pending_out()).unwrap();
    conn.consume_out(conn.pending_out().len());
}

#[test]
fn a_call_that_times_out_gives_up_only_itself() {
    let (release, gate) = mpsc::channel();
    let backend = Gated {
        release: Mutex::new(gate),
    };
    let server = NetServer::bind(Arc::new(backend), &Environment::new()).unwrap();
    let addr = server.local_addr().to_string();
    let client = client(&addr, 1_000);

    // The connection's first call, so the pool's redial of a failed
    // *reused* connection does not apply: the timeout is the mux's alone.
    let err = lookup(&client, "slow").unwrap_err();
    assert!(matches!(err, NamingError::Timeout { .. }), "{err:?}");
    assert_eq!(client.pooled(), 1, "the connection outlives the call");

    // The server now answers `slow`, late; the next call on the same
    // connection reads that answer first and drops it.
    release.send(()).unwrap();
    let out = lookup(&client, "fast").unwrap();
    assert!(
        matches!(&out, OpOutcome::Wire(b) if b == b"fast"),
        "{out:?}"
    );
    assert_eq!(events(&addr, "dial"), 1, "no new connection");
    assert_eq!(events(&addr, "reuse"), 1);
    server.shutdown();
}

#[test]
fn a_broken_connection_fails_every_caller_at_once() {
    const CALLERS: usize = 4;
    const DEADLINE_MS: u64 = 10_000;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        // A redial is refused, so that every caller's failure is prompt.
        drop(listener);
        let mut conn = ServerConn::new();
        let first = requests(&mut sock, &mut conn, 1)[0];
        answer(&mut sock, &mut conn, first);
        // Every caller's request is in; the connection closes under them.
        requests(&mut sock, &mut conn, CALLERS);
    });
    let client = Arc::new(client(&addr, DEADLINE_MS));
    lookup(&client, "warm-up").unwrap();

    let start = Instant::now();
    let callers: Vec<_> = (0..CALLERS)
        .map(|i| {
            let client = client.clone();
            thread::spawn(move || lookup(&client, &format!("n{i}")))
        })
        .collect();
    for caller in callers {
        let err = caller.join().unwrap().unwrap_err();
        assert!(matches!(err, NamingError::ServiceFailure { .. }), "{err:?}");
    }
    peer.join().unwrap();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(DEADLINE_MS / 4),
        "the callers failed after {took:?}, deadline {DEADLINE_MS} ms"
    );
}

#[test]
fn a_reused_connection_that_fails_is_redialled_once() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (closed, was_closed) = mpsc::channel();
    let peer = thread::spawn(move || {
        for round in 0..2 {
            let (mut sock, _) = listener.accept().unwrap();
            let mut conn = ServerConn::new();
            let id = requests(&mut sock, &mut conn, 1)[0];
            answer(&mut sock, &mut conn, id);
            if round == 0 {
                // The pooled connection dies while it idles.
                drop(sock);
                closed.send(()).unwrap();
            }
        }
    });
    let client = client(&addr, 10_000);
    assert!(matches!(lookup(&client, "a"), Ok(OpOutcome::Done)));
    was_closed.recv().unwrap();

    let out = lookup(&client, "b");
    assert!(matches!(out, Ok(OpOutcome::Done)), "{out:?}");
    assert_eq!(events(&addr, "redial"), 1);
    assert_eq!(events(&addr, "dial"), 2);
    peer.join().unwrap();
}
