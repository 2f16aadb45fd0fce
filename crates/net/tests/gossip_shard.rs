//! A naming call that waits on the group must not starve the frames it
//! waits for. A replicated write served by a cluster node blocks its
//! event loop until the group's ordered copy comes back — over a gossip
//! connection, which round-robin accept may well have put on the same
//! loop. The server moves connections that speak gossip to a shard of
//! their own; here one shard, one blocking call and one gossip peer make
//! the collision certain. The transport reads no gossip payload: the
//! frames here are bytes that mean nothing to it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::op::{NamingOp, OpOutcome};
use rndi_core::spi::ProviderBackend;
use rndi_net::{GossipHandler, NetClient, NetServer};

/// What a peer sends, and what the handler answers.
const FRAME: &[u8] = b"\x01\x01 any bytes";
const ACK: &[u8] = b"\x01\x01";

/// What the call waits for and the gossip frame delivers.
#[derive(Default)]
struct Group {
    state: Mutex<Progress>,
    changed: Condvar,
}

#[derive(Default)]
struct Progress {
    waiting: bool,
    delivered: bool,
}

impl Group {
    fn update(&self, change: impl FnOnce(&mut Progress)) {
        change(&mut self.state.lock().unwrap());
        self.changed.notify_all();
    }

    /// Wait until `done` holds, for at most `within`; whether it did.
    fn wait_for(&self, within: Duration, done: impl Fn(&Progress) -> bool) -> bool {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, within, |progress| !done(progress))
            .unwrap();
        done(&state)
    }
}

impl ProviderBackend for Group {
    fn execute(&self, _: &NamingOp) -> Result<OpOutcome> {
        self.update(|progress| progress.waiting = true);
        if !self.wait_for(Duration::from_secs(2), |progress| progress.delivered) {
            return Err(NamingError::Timeout {
                detail: "the frame never came".into(),
            });
        }
        Ok(OpOutcome::Done)
    }

    fn provider_id(&self) -> String {
        "group".to_string()
    }
}

impl GossipHandler for Group {
    fn handle(&self, payload: &[u8]) -> Vec<u8> {
        assert_eq!(payload, FRAME, "the payload crosses unchanged");
        // Only a frame sent while the call waits counts.
        self.update(|progress| progress.delivered |= progress.waiting);
        ACK.to_vec()
    }
}

#[test]
fn gossip_is_served_while_a_call_blocks_the_only_shard() {
    let group = Arc::new(Group::default());
    let env = Environment::new().with(keys::NET_SERVER_SHARDS, "1");
    let server = NetServer::bind(group.clone(), &env).expect("server starts");
    server.set_gossip_handler(group.clone());
    let endpoint = server.local_addr().to_string();

    // The peer's connection exists, and has spoken, before the call.
    let peer = NetClient::new(endpoint.clone(), &env).unwrap();
    assert_eq!(peer.gossip(FRAME).unwrap(), ACK);

    let caller = {
        let client = NetClient::new(endpoint, &env).unwrap();
        std::thread::spawn(move || client.execute(&NamingOp::lookup("k".into())))
    };
    assert!(
        group.wait_for(Duration::from_secs(10), |progress| progress.waiting),
        "the call never reached the backend"
    );
    assert_eq!(peer.gossip(FRAME).unwrap(), ACK);
    let answer = caller.join().unwrap();
    assert!(matches!(answer, Ok(OpOutcome::Done)), "{answer:?}");
    server.shutdown();
}

/// Counts the calls that reach it.
#[derive(Default)]
struct Counting(AtomicUsize);

impl ProviderBackend for Counting {
    fn execute(&self, _: &NamingOp) -> Result<OpOutcome> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(OpOutcome::Done)
    }

    fn provider_id(&self) -> String {
        "counting".to_string()
    }
}

#[test]
fn gossip_to_a_server_without_a_plane_is_refused_before_the_backend() {
    let backend = Arc::new(Counting::default());
    let server = NetServer::bind(backend.clone(), &Environment::new()).expect("server starts");
    let client = NetClient::new(server.local_addr().to_string(), &Environment::new()).unwrap();

    match client.gossip(FRAME) {
        Err(NamingError::ServiceFailure { detail }) => {
            assert!(detail.contains("no cluster membership plane"), "{detail}")
        }
        other => panic!("expected the typed refusal, got {other:?}"),
    }
    assert_eq!(backend.0.load(Ordering::SeqCst), 0, "a backend was reached");
    // The refusal is an answer, not a dropped connection.
    let answer = client.execute(&NamingOp::lookup("k".into()));
    assert!(matches!(answer, Ok(OpOutcome::Done)), "{answer:?}");
    assert_eq!(backend.0.load(Ordering::SeqCst), 1);
    server.shutdown();
}
