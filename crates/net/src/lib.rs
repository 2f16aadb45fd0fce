//! rndi-net: a layered wire transport for RNDI naming operations.
//!
//! The transport reifies the same [`NamingOp`](rndi_core::op::NamingOp) /
//! [`OpOutcome`](rndi_core::op::OpOutcome) vocabulary the in-process
//! pipeline already speaks, so putting a network between a context and
//! its provider is a composition change, not a semantic one. The crate is
//! split into three layers (fraktor-rs-style), each testable without the
//! one below it:
//!
//! - [`proto`] — pure protocol: message shapes, the compact binary
//!   envelope codec ([`proto::bin`]), and the 4-byte connection preamble.
//!   No connection state, no IO.
//! - [`conn`] — sans-IO connection state machines: incremental frame
//!   reassembly, the preamble handshake, and request-ID multiplexing for
//!   pipelined calls. Bytes in, messages out; no sockets.
//! - [`server`] / [`client`] — IO strategy: [`NetServer`] hosts **any**
//!   [`ProviderBackend`](rndi_core::spi::ProviderBackend) — including a
//!   full `ProviderPipeline`, so server-side cache/retry/obs layers keep
//!   working — on a shard-per-core nonblocking event loop that holds
//!   thousands of connections with per-request deadlines and graceful
//!   drain. [`NetClient`] **is** a `ProviderBackend`: the client-side
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

pub mod client;
pub mod conn;
pub mod proto;
pub mod server;

pub use client::{ClientConfig, NetClient, NetClientFactory};
pub use server::{GossipHandler, MembershipStats, NetServer, ServerConfig};
