//! The Service Provider Interface.
//!
//! * [`UrlContextFactory`] — one per URL scheme; turns `jini://host` into a
//!   live provider context. The [`ProviderRegistry`] maps schemes to
//!   factories (JNDI's `NamingManager` + `Context.URL_PKG_PREFIXES`
//!   machinery, without the classpath scanning).
//! * [`ProviderBackend`] — the one method a provider implements; the
//!   interceptors in front of it (`interceptors`), the [`ProviderPipeline`]
//!   that stacks them (`pipeline`), the [`telemetry`] reader, [`boundary`]
//!   — the one place that decides where a provider's namespace ends and a
//!   federation link takes over — and [`search`], the client-side search
//!   walk for a backend with no query engine of its own.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::context::DirContext;
use crate::env::Environment;
use crate::error::{NamingError, Result};
use crate::event::EventHub;
use crate::federation::Continuations;
use crate::name::CompoundSyntax;
use crate::op::{NamingOp, OpOutcome};
use crate::url::RndiUrl;

pub mod boundary;
mod interceptors;
mod pipeline;
pub mod search;
pub mod telemetry;

pub(crate) use interceptors::{cache_events, CacheMap, DEFAULT_CACHE_MAX_ENTRIES};
pub use interceptors::{
    is_transient, CacheInterceptor, Interceptor, MarshalInterceptor, ObsInterceptor, OpInvoker,
    RetryInterceptor,
};
pub use pipeline::ProviderPipeline;

/// Creates provider contexts for one URL scheme.
pub trait UrlContextFactory: Send + Sync {
    /// The scheme this factory serves, lower-case (e.g. `"jini"`).
    fn scheme(&self) -> &str;

    /// Create a context rooted at the URL's authority. The URL's path is
    /// *not* resolved here — the federation driver does that — so factories
    /// only inspect `url.host` / `url.port`.
    fn create(&self, url: &RndiUrl, env: &Environment) -> Result<Arc<dyn DirContext>>;
}

/// Scheme → factory table, and the federation hops resolved through it.
#[derive(Default)]
pub struct ProviderRegistry {
    factories: RwLock<HashMap<String, Arc<dyn UrlContextFactory>>>,
    continuations: Continuations,
}

impl ProviderRegistry {
    pub fn new() -> Self {
        ProviderRegistry::default()
    }

    /// Register a factory under its scheme, replacing any previous one.
    pub fn register(&self, factory: Arc<dyn UrlContextFactory>) {
        self.factories
            .write()
            .insert(factory.scheme().to_ascii_lowercase(), factory);
    }

    /// Find the factory for `scheme` (any case; a scheme that is lower
    /// case already, as every parsed [`RndiUrl`]'s is, is looked up as it
    /// stands).
    pub fn get(&self, scheme: &str) -> Result<Arc<dyn UrlContextFactory>> {
        let factories = self.factories.read();
        let found = if scheme.bytes().any(|b| b.is_ascii_uppercase()) {
            factories.get(&scheme.to_ascii_lowercase())
        } else {
            factories.get(scheme)
        };
        found.cloned().ok_or_else(|| NamingError::NoProvider {
            scheme: scheme.to_string(),
        })
    }

    /// The federation hops cached for [`crate::federation::drive_op`].
    pub fn continuations(&self) -> &Continuations {
        &self.continuations
    }

    /// Create a context for a URL by dispatching on its scheme.
    pub fn create_context(&self, url: &RndiUrl, env: &Environment) -> Result<Arc<dyn DirContext>> {
        self.get(&url.scheme)?.create(url, env)
    }
}

// ====================================================================
// The provider pipeline: reified ops through composable interceptors.
// ====================================================================

/// How a backend stores values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFormat {
    /// The backend keeps live [`BoundValue`](crate::value::BoundValue)s
    /// (in-memory contexts); the marshalling layer stays out of the way.
    Native,
    /// The backend stores opaque bytes; the pipeline's marshalling layer
    /// encodes bind payloads before they reach [`ProviderBackend::execute`]
    /// and decodes [`OpOutcome::Wire`] results on the way back.
    Encoded,
}

/// The one surface a provider implements: execute one reified operation,
/// answering [`NamingError::NotSupported`] for what its backend lacks.
///
/// Everything else — the `Context`/`DirContext` methods, metrics, retries,
/// caching, marshalling — is written once: the methods in
/// [`crate::context`], the rest by routing ops through a
/// [`ProviderPipeline`].
pub trait ProviderBackend: Send + Sync {
    /// Execute one operation against the backing naming service.
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome>;

    /// Identifies the provider instance (diagnostics, telemetry labels).
    fn provider_id(&self) -> String {
        "anonymous".to_string()
    }

    /// The syntax of this provider's compound name components.
    fn compound_syntax(&self) -> CompoundSyntax {
        CompoundSyntax::path()
    }

    /// The provider's event hub, if it has one. The pipeline's cache layer
    /// subscribes here so naming events invalidate stale entries.
    fn event_hub(&self) -> Option<Arc<EventHub>> {
        None
    }

    /// Whether this backend stores live values or marshalled bytes.
    fn wire_format(&self) -> WireFormat {
        WireFormat::Native
    }

    /// A counter the backend bumps on every change it applies to what it
    /// serves, whoever made the change, if it keeps one. The pipeline's
    /// cache serves an entry only while the counter reads what it read when
    /// the entry was filled.
    fn generation(&self) -> Option<Arc<AtomicU64>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemContext;

    struct DummyFactory;
    impl UrlContextFactory for DummyFactory {
        fn scheme(&self) -> &str {
            "dummy"
        }
        fn create(&self, _: &RndiUrl, _: &Environment) -> Result<Arc<dyn DirContext>> {
            Ok(Arc::new(MemContext::new()))
        }
    }

    #[test]
    fn registry_dispatch() {
        let reg = ProviderRegistry::new();
        reg.register(Arc::new(DummyFactory));
        let url = RndiUrl::parse("DUMMY://host").unwrap();
        assert!(reg.create_context(&url, &Environment::new()).is_ok());
        assert!(matches!(
            reg.get("nope"),
            Err(NamingError::NoProvider { .. })
        ));
    }
}
