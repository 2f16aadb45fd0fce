//! rndi-net: a layered wire transport for RNDI naming operations.
//!
//! The transport reifies the same [`NamingOp`](rndi_core::op::NamingOp) /
//! [`OpOutcome`](rndi_core::op::OpOutcome) vocabulary the in-process
//! pipeline already speaks, so putting a network between a context and
//! its provider is a composition change, not a semantic one. The crate is
//! split into three layers (fraktor-rs-style), each testable without the
//! one below it: pure protocol, sans-IO state machines, and IO:
//!
//! - [`proto`] — pure protocol: message shapes, the compact binary
//!   envelope codec ([`proto::bin`]), and the 4-byte connection preamble.
//!   No connection state, no IO.
//! - [`conn`] — sans-IO connection state machines: incremental frame
//!   reassembly, the preamble handshake, and request-ID multiplexing for
//!   pipelined calls. Bytes in, messages out; no sockets.
//! - [`admit`] — the sans-IO admission machine: per-connection token
//!   buckets, the bounded call queue, expiry in queue, the AIMD bound and
//!   the shed hints. Calls and instants in, decisions out; no clock.
//! - [`shard`] — one event loop's pass, sans-IO: connections by id, the
//!   admission offer and the queue's run against the backend, admin,
//!   gossip routing and the request instruments. Bytes and instants in,
//!   bytes out.
//! - [`server`] / [`client`] — IO strategy: [`NetServer`] hosts **any**
//!   [`ProviderBackend`](rndi_core::spi::ProviderBackend) — including a
//!   full `ProviderPipeline`, so server-side cache/retry/obs layers keep
//!   working — on shard-per-core nonblocking threads that move bytes for
//!   thousands of connections, with graceful drain. [`NetClient`] **is** a `ProviderBackend`: the client-side
//!   pipeline stack (cache, retry, obs interceptors) wraps remote calls
//!   unchanged, over pooled connections that multiplex concurrent
//!   requests.
//!
//! ## Wire format
//!
//! A client opens with the 4-byte `RNI\x02` preamble, which the server
//! echoes as an acknowledgement; a connection that opens with anything
//! else is refused. Every frame after it is a `u32` big-endian length
//! prefix followed by that many payload bytes (16 MiB cap) holding one
//! binary [`proto::Envelope`], whose request ID lets one connection hold
//! many in-flight calls and deliver responses out of order, and whose
//! `trace` field is the one carrier of a call's trace context.

#![deny(unsafe_code)]

pub mod admit;
pub mod client;
pub mod conn;
pub mod proto;
pub mod server;
pub mod shard;

pub use client::{ClientConfig, NetClient, NetClientFactory};
pub use server::{GossipHandler, NetServer, ServerConfig};
