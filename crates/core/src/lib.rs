//! # rndi-core — Rust Naming and Directory Interface
//!
//! A JNDI-analog client API and service-provider interface, reproducing the
//! integration middleware of *"Integrating heterogeneous information
//! services using JNDI"* (IPPS 2006).
//!
//! The crate provides:
//!
//! * **Names** — [`name::CompositeName`] (spanning naming systems, `/`
//!   separated with escapes/quotes), and the [`name::CompoundSyntax`] each
//!   system reports for its own names (DNS dots, LDAP commas, …).
//! * **Contexts** — the [`context::Context`] / [`context::DirContext`]
//!   client surface, written once over [`spi::ProviderBackend::execute`],
//!   plus the data model: [`value::BoundValue`] `<name, object, attributes>` tuples
//!   with [`attrs::Attributes`].
//! * **Queries** — LDAP-style (RFC 2254) search [`filter::Filter`]s, as the
//!   JNDI spec mandates.
//! * **SPI** — [`spi::ProviderRegistry`] mapping URL schemes to providers,
//!   and [`spi::ProviderBackend`], the one-method surface a provider
//!   implements to store generic tuples in a backend never designed for
//!   them (the Jini provider's "fake service stubs" are its own business).
//! * **Federation** — [`federation::drive_op`] follows
//!   [`error::NamingError::Continue`] continuations across naming-system
//!   boundaries, so `hdns://host2/jiniCtx/name` transparently hops from
//!   HDNS into Jini.
//! * **Events** — [`event::EventHub`] prefix-scoped change notification.
//! * **Leases** — [`lease::LeaseRenewalManager`], the client-side lease
//!   emulation that hides Jini leasing from the JNDI API surface.
//! * **[`initial::InitialContext`]** — the application entry point.
//! * **[`mem::MemContext`]** — the in-memory provider, and the independent
//!   model the other providers are checked against.
//!
//! ## Quick start
//!
//! ```
//! use rndi_core::prelude::*;
//! use std::sync::Arc;
//!
//! // A registry with (for this example) just the in-memory provider
//! // mounted as the default context.
//! let registry = Arc::new(ProviderRegistry::new());
//! let root = MemContext::new();
//! let ctx = InitialContext::with_default(registry, Environment::new(), Arc::new(root));
//!
//! ctx.bind("greeting", "hello world").unwrap();
//! assert_eq!(ctx.lookup("greeting").unwrap().as_str(), Some("hello world"));
//! ```

#![deny(unsafe_code)]

pub mod attrs;
pub mod context;
pub mod env;
pub mod error;
pub mod event;
pub mod federation;
pub mod filter;
pub mod initial;
pub mod lease;
pub mod mem;
pub mod name;
pub mod op;
pub mod spi;
pub mod url;
pub mod value;

/// The common imports for applications and providers.
pub mod prelude {
    pub use crate::attrs::{AttrMod, AttrValue, Attribute, Attributes};
    pub use crate::context::{
        Binding, Context, ContextExt, DirContext, NameClassPair, OpContext, SearchControls,
        SearchItem, SearchScope,
    };
    pub use crate::env::{keys as env_keys, Environment};
    pub use crate::error::{NamingError, Result};
    pub use crate::event::{
        CollectingListener, EventHub, EventType, ListenerHandle, NamingEvent, NamingListener,
    };
    pub use crate::federation::FederatedContext;
    pub use crate::filter::Filter;
    pub use crate::initial::InitialContext;
    pub use crate::mem::{MemContext, MemFactory};
    pub use crate::name::{CompositeName, CompoundSyntax};
    pub use crate::op::{NamingOp, OpKind, OpOutcome, OpPayload};
    pub use crate::spi::{
        Interceptor, OpInvoker, ProviderBackend, ProviderPipeline, ProviderRegistry,
        UrlContextFactory, WireFormat,
    };
    pub use crate::url::{looks_like_url, RndiUrl};
    pub use crate::value::{BoundValue, RefAddr, Reference, StoredValue};
}
