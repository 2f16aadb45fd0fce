//! # groupcast — reliable group communication (a JGroups analogue)
//!
//! HDNS (the paper's §4) is built on JGroups: "a toolkit for reliable
//! multicast group communication … the most powerful feature of JGroups is
//! a configurable protocol stack, allowing to defer quality-of-service
//! decisions regarding fault tolerance and scalability until run time."
//! This crate reimplements the parts HDNS observably depends on:
//!
//! * **Membership** ([`view::View`], [`protocols::gms`]) — join/leave,
//!   failure-driven view changes, coordinator election (oldest member).
//! * **Ordering** ([`config::OrderingMode`]):
//!   [`protocols::sequencer`] — coordinator-stamped **total order**
//!   (the Virtual Synchrony suite: "guarantees an atomic broadcast and
//!   delivery … at the cost of scalability"); and
//!   [`protocols::bimodal`] — best-effort multicast with gossip
//!   anti-entropy ("improves scalability, for the price of probabilistic
//!   message delivery reliability"), which the paper's HDNS ran.
//! * **Failure handling** — [`Cluster::detect_failures`] reconciles every
//!   group's views with what the simulated network can still reach.
//! * **State transfer** — snapshots to joiners and to partition losers.
//! * **PRIMARY_PARTITION** ([`protocols::primary`]) — the protocol the
//!   authors *added* to the JGroups stack: "after a transient network
//!   partition, it resolves state conflicts by uniquely selecting the
//!   partition deemed to have the valid state, and forcing other
//!   partitions to re-synchronize."
//! * **Flow control** ([`protocols::flow`]) — bounded or unbounded message
//!   buffers with memory accounting; a queued message is charged
//!   [`Wire::size`], the bytes its binary frame ([`Wire::encode`], built on
//!   [`codec`]) occupies on a link. The **unbounded** variant reproduces
//!   the paper's Fig. 5 failure: "flooding the server with requests cause
//!   internal JGroups message queues to grow without bounds, eventually
//!   causing memory exhaustion and server crash."
//!
//! The whole cluster is deterministic: messages queue in a
//! [`cluster::Cluster`] and are processed by explicit [`Cluster::pump`]
//! calls; gossip and loss draw from a seeded RNG.
//!
//! [`Cluster::pump`]: cluster::Cluster::pump
//! [`Cluster::detect_failures`]: cluster::Cluster::detect_failures

pub mod addr;
pub mod channel;
pub mod cluster;
pub mod codec;
pub mod config;
pub mod member;
pub mod protocols;
pub mod view;
pub mod wire;

pub use addr::Addr;
pub use channel::{ChannelEvent, GroupChannel, SendError};
pub use cluster::Cluster;
pub use config::{OrderingMode, StackConfig};
pub use member::{MemberCore, Outgoing};
pub use view::{View, ViewId};
pub use wire::Wire;
