//! # rndi-shard — a rendezvous-hash routing tier over N naming shards
//!
//! One registrar/DIT/HDNS store per process caps the directory at one
//! machine's memory and one write lock. This crate partitions the
//! namespace across N shards instead:
//!
//! * [`hash`] — highest-random-weight (rendezvous) hashing: the shard
//!   whose `weight(shard_id, key)` is greatest owns `key`. Stateless,
//!   coordination-free, and minimally disruptive under membership change.
//! * [`ShardMap`] — the membership: shard ids plus the endpoints serving
//!   them (static config today, epoch-stamped for future rebalancing).
//! * [`ShardRouter`] — a [`ProviderBackend`](rndi_core::spi::ProviderBackend)
//!   that routes each op to its owner shard (by the op's
//!   [`routing_key`](rndi_core::op::NamingOp::routing_key) — the first
//!   name component), scattering whole-namespace ops across every shard
//!   with a deterministic name-order merge.
//!
//! The router composes exactly like any other backend:
//!
//! ```text
//! ProviderPipeline::standard          (cache / retry / marshal / obs)
//!   └─ ShardRouter                    (rendezvous routing, scatter merge)
//!        ├─ NetClient → shard 0       (pooled, pipelined v2 transport)
//!        ├─ NetClient → shard 1
//!        └─ …                          each shard: NetServer → provider
//!                                      pipeline → registrar/HDNS store
//! ```

#![deny(unsafe_code)]

pub mod hash;
pub mod map;
pub mod observer;
pub mod router;

pub use map::{ShardInfo, ShardMap};
pub use observer::{AssembledTrace, ClusterObserver, ClusterScrape, DerivedSignals, OpLatency};
pub use router::ShardRouter;
