//! A naming call that waits on the group must not starve the frames it
//! waits for. A replicated write served by a cluster node blocks its
//! event loop until the group's ordered copy comes back — over a gossip
//! connection, which round-robin accept may well have put on the same
//! loop. The server moves connections that speak gossip to a shard of
//! their own; here one shard, one blocking call and one gossip peer make
//! the collision certain.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::op::{NamingOp, OpOutcome};
use rndi_core::spi::ProviderBackend;
use rndi_net::proto::{GossipReply, GossipRequest};
use rndi_net::{GossipHandler, NetClient, NetServer};

/// What the call waits for and the gossip frame delivers.
#[derive(Default)]
struct Group {
    waiting: AtomicBool,
    delivered: AtomicBool,
}

impl ProviderBackend for Group {
    fn execute(&self, _: &NamingOp) -> Result<OpOutcome> {
        self.waiting.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(2);
        while !self.delivered.load(Ordering::SeqCst) {
            if Instant::now() >= deadline {
                return Err(NamingError::Timeout {
                    detail: "the frame never came".into(),
                });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(OpOutcome::Done)
    }

    fn provider_id(&self) -> String {
        "group".to_string()
    }
}

impl GossipHandler for Group {
    fn handle(&self, _: GossipRequest) -> GossipReply {
        // Only a frame sent while the call waits counts.
        if self.waiting.load(Ordering::SeqCst) {
            self.delivered.store(true, Ordering::SeqCst);
        }
        GossipReply::Ack
    }
}

fn frame() -> GossipRequest {
    GossipRequest::Group {
        group: "g".into(),
        from: 1,
        wire: vec![],
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
    assert_eq!(peer.gossip(frame()).unwrap(), GossipReply::Ack);

    let caller = {
        let client = NetClient::new(endpoint, &env).unwrap();
        std::thread::spawn(move || client.execute(&NamingOp::lookup("k".into())))
    };
    while !group.waiting.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(peer.gossip(frame()).unwrap(), GossipReply::Ack);
    let answer = caller.join().unwrap();
    assert!(matches!(answer, Ok(OpOutcome::Done)), "{answer:?}");
    server.shutdown();
}
