//! # rndi-providers — service providers for heterogeneous backends
//!
//! The paper's §5: each provider maps the RNDI (JNDI-analog) API onto one
//! backend, hiding its heterogeneity behind the common `DirContext`
//! surface while emulating missing capabilities client-side.
//!
//! * [`jini`] — the Jini provider. Generic `<name, value, attrs>` tuples
//!   become "fake service stubs" on the way in and back on the way out;
//!   leases are renewed inside the provider; and atomic `bind` is built on
//!   the overwrite-only registry with [`emlock`] — Eisenberg & McGuire's
//!   N-process mutual exclusion over shared read/write registers (3 reads
//!   plus 5 writes per uncontended critical section, the ≥8× latency penalty
//!   of §5.1) — switchable to *relaxed* semantics via the environment
//!   property `rndi.jini.bind.strict`.
//! * [`hdns`] — the HDNS provider: a thin, natively atomic mapping (HDNS
//!   was designed with the JNDI mapping in mind).
//! * [`dns`] — a read-only provider over `minidns`; TXT records carrying
//!   URLs act as federation links, which is how a DNS name anchors the
//!   whole federated namespace (§6).
//! * [`ldap`] — a provider over `dirserv`, mapping composite names to DNs
//!   and RNDI filters to LDAP filters.
//! * [`fs`] — local filesystem storage (bindings as files), the
//!   "filesystem provider" JNDI ships with.
//!
//! Every provider registers a [`rndi_core::spi::UrlContextFactory`] with a
//! host registry, so `jini://host1/name` style URLs resolve to deployed
//! backend instances.

pub mod common;
pub mod dns;
pub mod emlock;
pub mod fs;
pub mod hdns;
pub mod jini;
pub mod ldap;

pub use dns::{DnsFactory, DnsProviderContext};
pub use emlock::{EisenbergMcGuire, SharedRegisters};
pub use fs::{FsContext, FsFactory};
pub use hdns::{HdnsFactory, HdnsProviderContext};
pub use jini::{AtomicBindProxy, JiniFactory, JiniProviderContext};
pub use ldap::{LdapFactory, LdapProviderContext};
