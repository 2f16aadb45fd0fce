//! # rlus — Rust Lookup Service (a Jini LUS analogue)
//!
//! Jini's lookup service stores *service items*: a proxy object plus
//! attribute entries, registered under a 128-bit service ID and kept alive
//! by leases. Clients find services by template matching over service
//! types and attribute entries, and can register for remote events fired on
//! match-set transitions. This crate reimplements that contract:
//!
//! * [`id::ServiceId`] — 128-bit service identifiers.
//! * [`item::ServiceItem`] — proxy stub + typed attribute entries; the
//!   registrar holds and hands out each as one [`item::SharedItem`].
//! * [`template::ServiceTemplate`] — id/type/entry matching.
//! * [`lease::LeaseSet`] — granted leases with expiry sweeping; **all**
//!   registrations are leased, exactly the property the paper's JNDI
//!   provider has to paper over with client-side renewal.
//! * [`registrar::Registrar`] — the lookup service proper. Registration is
//!   **overwrite-only** ("aiming at achieving idempotency, Jini
//!   registration methods always overwrite the previous value") — there is
//!   deliberately no atomic bind primitive, which is what forces the JNDI
//!   provider into Eisenberg–McGuire distributed locking.
//! * [`event`] — `SERVICE_ADDED` / `REMOVED` / `CHANGED` remote events.
//! * [`discovery::DiscoveryRealm`] — group-based registrar discovery.
//!
//! The service is deliberately independent of `rndi-core`: it models an
//! *existing, heterogeneous* backend that the integration middleware must
//! adapt to, not one designed for it.

#![deny(unsafe_code)]

pub mod discovery;
pub mod event;
pub mod id;
mod index;
pub mod item;
pub mod lease;
pub mod registrar;
pub mod template;

pub use discovery::DiscoveryRealm;
pub use event::{ServiceEvent, ServiceListener, Transition};
pub use id::ServiceId;
pub use item::{Entry, ServiceItem, ServiceStub, SharedItem};
pub use lease::{Lease, LeaseError};
pub use registrar::{Registrar, ServiceRegistration};
/// The registrar's time source: the process's one millisecond clock.
pub use rndi_obs::clock::{Clock, ManualClock, SystemClock};
pub use template::{EntryTemplate, ServiceTemplate};
