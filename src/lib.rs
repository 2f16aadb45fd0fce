//! # RNDI — Rust Naming and Directory Interface
//!
//! Facade crate for the RNDI workspace: a reproduction of
//! *"Integrating heterogeneous information services using JNDI"* (IPPS 2006).
//!
//! Re-exports the public API of every workspace crate so downstream users can
//! depend on a single crate:
//!
//! * [`core`] — the JNDI-analog client API and SPI (names, contexts,
//!   attributes, filters, federation, events, leases).
//! * [`providers`] — service providers bridging the API onto each backend.
//! * [`rlus`], [`hdns`], [`dns`], [`ldap`] — the backend services themselves.
//! * [`shard`] — the rendezvous-hash routing tier partitioning one
//!   namespace across N networked shards.
//! * [`groupcast`] — the group-communication toolkit underneath HDNS.
//! * [`simnet`] — the virtual-time cluster used by the evaluation harness.
//!
//! ## A one-minute federation
//!
//! ```
//! use rndi::core::prelude::*;
//! use std::sync::Arc;
//!
//! // Two "services" (in-memory here; jini/hdns/dns/ldap in production —
//! // see examples/).
//! let registry = Arc::new(ProviderRegistry::new());
//! registry.register(MemFactory::new());
//!
//! let ctx = InitialContext::new(registry, Environment::new()).unwrap();
//! ctx.bind("mem://east/printer", "laser-3").unwrap();
//!
//! // Link the east service into the west service, then traverse the
//! // composite URL — one lookup, two naming systems.
//! ctx.bind(
//!     "mem://west/east-link",
//!     BoundValue::Reference(Reference::url("mem://east")),
//! )
//! .unwrap();
//! let v = ctx.lookup("mem://west/east-link/printer").unwrap();
//! assert_eq!(v.as_str(), Some("laser-3"));
//! ```

#![deny(unsafe_code)]

pub mod serve;

pub use rndi_core as core;
pub use rndi_net as net;
pub use rndi_obs as obs;
pub use rndi_providers as providers;
pub use rndi_shard as shard;

pub use dirserv as ldap;
pub use groupcast;
pub use hdns;
pub use minidns as dns;
pub use rlus;
pub use rndi_cluster as cluster;
pub use simnet;
