//! A networked HDNS deployment: the replica group runs behind TCP
//! servers, and the client talks to it over loopback through a
//! `NetClient` — which is just another `ProviderBackend`, so the usual
//! pipeline (retry, cache, obs) wraps the remote calls unchanged.
//!
//! The connection speaks the one wire protocol there is: binary
//! envelopes multiplexed by request ID, each call carrying its trace
//! context in the envelope.
//!
//! Run with: `cargo run --example remote_hdns`

use rndi::core::context::{ContextExt, DirContext};
use rndi::core::env::{keys, Environment};
use rndi::core::filter::Filter;
use rndi::core::name::CompositeName;
use rndi::core::prelude::*;
use rndi::net::{NetClient, NetServer};
use rndi::providers::HdnsProviderContext;

fn main() -> Result<()> {
    // ---- Server side: a two-replica HDNS realm, each node a TCP endpoint ----
    let realm = rndi::hdns::HdnsRealm::new(
        "remote",
        2,
        rndi::groupcast::StackConfig::default(),
        None,
        7,
    );
    // Each replica behind its own server: the provider's standard pipeline
    // (cache, retry, obs) on the server side, then the listener.
    let node0 = NetServer::bind(
        HdnsProviderContext::new(realm.clone(), 0, "remote"),
        &Environment::new(),
    )?;
    let node1 = NetServer::bind(
        HdnsProviderContext::new(realm, 1, "remote"),
        &Environment::new(),
    )?;
    println!("hdns node 0 listening on {}", node0.local_addr());
    println!("hdns node 1 listening on {}", node1.local_addr());

    // ---- Client side: dial the nearest node, with retry enabled ----
    let env = Environment::new()
        .with(keys::RETRY_MAX_ATTEMPTS, "3")
        .with(keys::RETRY_BACKOFF_MS, "50");
    let ctx = NetClient::connect(node0.local_addr().to_string(), &env)?;

    ctx.bind_str("printer", "laser-3rd-floor")?;
    ctx.bind_with_attrs(
        &"node01".into(),
        BoundValue::str("stub-node01"),
        Attributes::new().with("os", "linux").with("cpu", "16"),
    )?;

    println!(
        "lookup printer        -> {:?}",
        ctx.lookup_str("printer")?.as_str().unwrap()
    );

    // Writes replicate through the group: a second client on the *other*
    // node sees them.
    let other = NetClient::connect(node1.local_addr().to_string(), &env)?;
    println!(
        "lookup via node 1     -> {:?}",
        other.lookup_str("printer")?.as_str().unwrap()
    );

    // Directory search over the wire.
    let hits = other.search(
        &CompositeName::empty(),
        &Filter::parse("(&(os=linux)(cpu>=8))")?,
        &SearchControls::default(),
    )?;
    println!("big linux boxes       -> {:?}", hits[0].name);

    // One linked trace spans client and server: the last lookup's trace
    // contains spans from both sides of the wire.
    let ring = rndi::obs::trace::ring();
    if let Some(anchor) = ring
        .snapshot()
        .iter()
        .rev()
        .find(|s| s.layer == "client" && s.op == "search")
    {
        let trace = ring.trace(anchor.trace_id);
        println!("trace {:#x} has {} spans:", anchor.trace_id, trace.len());
        for s in &trace {
            println!("  depth {} {:10} {} {}", s.depth, s.layer, s.provider, s.op);
        }
    }

    node0.shutdown();
    node1.shutdown();
    println!("remote_hdns OK");
    Ok(())
}
