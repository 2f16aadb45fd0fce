//! rndi-cluster: the cluster membership plane.
//!
//! Where the simnet-backed group stack (crates/groupcomm, crates/hdns)
//! proves the replication protocols against a deterministic oracle, this
//! crate runs the same protocols between real processes on real TCP:
//!
//! * [`MembershipTable`] — SWIM-style `(incarnation, state)` beliefs
//!   merged under a total precedence order
//!   (`Alive < Suspect < Dead < Quarantined`);
//! * [`msg`] — the plane's messages and their one versioned codec, which
//!   `rndi-net` carries in `Gossip` envelopes as opaque bytes;
//! * [`GossipEngine`] — periodic anti-entropy Syncs, piggybacking the
//!   group-view lineage;
//! * [`PhiFailureDetector`] — phi-accrual suspicion over gossip
//!   inter-arrival times (`Suspect` at the configured threshold, `Dead`
//!   at twice it);
//! * [`QuarantineTable`] — time-gated re-admission of flapping nodes;
//! * [`bridge`] — converged beliefs → [`groupcast::View`] proposals
//!   (lineage-anchored candidate, strict-majority quorum);
//! * [`NodeState`] — all of one node's protocol state, every step taking
//!   the time as an argument (`plan_round`, `absorb`, `handle`);
//!   [`NodeReplica`] — that state plus the node's HDNS replica, as the
//!   [`hdns::Replica`] the HDNS provider serves (write gate → the shared
//!   `replicate` loop): a node minus its sockets, clock and threads;
//! * [`ClusterNode`] — one booted member: a `NetServer` answering naming
//!   calls with the standard `HdnsProviderContext` pipeline over its
//!   `NodeReplica`, the gossip handler and the pacer (the only code that
//!   touches sockets or reads a clock), with membership exported as
//!   `rndi_cluster_*` gauges in the node's metrics registry.
//!
//! Knobs (`rndi.cluster.*`): `seed`, `gossip-interval-ms`,
//! `phi-threshold`, `quarantine-ms` — see [`ClusterConfig`].

#![deny(unsafe_code)]

pub mod bridge;
pub mod config;
pub mod gossip;
pub mod membership;
pub mod msg;
pub mod node;
pub mod phi;
pub mod quarantine;

pub use bridge::addr_of;
pub use config::ClusterConfig;
pub use gossip::GossipEngine;
pub use membership::{MemberInfo, MembershipTable};
pub use msg::{GossipReply, GossipRequest, MemberEntry, MemberState, ViewSummary};
pub use node::{ClusterNode, NodeReplica, NodeState, RoundPlan, TcpChannel, BACKEND_WRITE_BUDGET};
pub use phi::PhiFailureDetector;
pub use quarantine::QuarantineTable;
