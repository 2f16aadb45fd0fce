//! The client entry point: [`InitialContext`].
//!
//! Mirrors JNDI's `new InitialDirContext()`: the application hands it an
//! [`Environment`] (and a [`ProviderRegistry`]) and then names everything
//! with strings. URL-form names (`jini://host1/printer`) route to the
//! provider registered for the scheme; plain composite names resolve in the
//! default context configured via [`keys::PROVIDER_URL`]. All operations
//! transparently follow federation continuations.

use std::sync::Arc;

use crate::attrs::{AttrMod, Attributes};
use crate::context::{Binding, DirContext, NameClassPair, SearchControls, SearchItem};
use crate::env::{keys, Environment};
use crate::error::{NamingError, Result};
use crate::federation::drive_op;
use crate::filter::Filter;
use crate::name::CompositeName;
use crate::op::{NamingOp, OpKind, OpOutcome};
use crate::spi::ProviderRegistry;
use crate::url::{looks_like_url, RndiUrl};
use crate::value::BoundValue;

/// The application-facing entry point for a (possibly federated) namespace.
pub struct InitialContext {
    env: Environment,
    registry: Arc<ProviderRegistry>,
    default_ctx: Option<Arc<dyn DirContext>>,
}

impl InitialContext {
    /// Create an initial context. If the environment carries
    /// [`keys::PROVIDER_URL`], that service becomes the default context for
    /// non-URL names.
    pub fn new(registry: Arc<ProviderRegistry>, env: Environment) -> Result<Self> {
        let default_ctx = match env.get(keys::PROVIDER_URL) {
            Some(url_str) => {
                let url = RndiUrl::parse(url_str)?;
                if !url.path.is_empty() {
                    return Err(NamingError::ConfigurationError {
                        detail: format!("{}: provider URL must not carry a path", url_str),
                    });
                }
                Some(registry.create_context(&url, &env)?)
            }
            None => None,
        };
        Ok(InitialContext {
            env,
            registry,
            default_ctx,
        })
    }

    /// Create with an explicit default context (e.g. an in-memory root).
    pub fn with_default(
        registry: Arc<ProviderRegistry>,
        env: Environment,
        default_ctx: Arc<dyn DirContext>,
    ) -> Self {
        InitialContext {
            env,
            registry,
            default_ctx: Some(default_ctx),
        }
    }

    /// The environment this context was created with.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// The provider registry in use.
    pub fn registry(&self) -> &Arc<ProviderRegistry> {
        &self.registry
    }

    /// Route a string name: URL names create a provider context for the
    /// authority, plain names resolve in the default context.
    fn route(&self, name: &str) -> Result<(Arc<dyn DirContext>, CompositeName)> {
        if looks_like_url(name) {
            // Factories see the authority only; the path is the name to
            // resolve there.
            let mut url = RndiUrl::parse(name)?;
            let path = std::mem::take(&mut url.path);
            let ctx = self.registry.create_context(&url, &self.env)?;
            Ok((ctx, path))
        } else {
            let ctx = self
                .default_ctx
                .clone()
                .ok_or_else(|| NamingError::ConfigurationError {
                    detail: format!(
                        "no default context configured (set {}) for name {name:?}",
                        keys::PROVIDER_URL
                    ),
                })?;
            Ok((ctx, CompositeName::parse(name)?))
        }
    }

    /// Route a string name and run the reified op built from its composite
    /// part through the federation loop.
    fn run_op(
        &self,
        name: &str,
        make: impl FnOnce(CompositeName) -> NamingOp,
    ) -> Result<OpOutcome> {
        let (ctx, composite) = self.route(name)?;
        drive_op(ctx, make(composite), &self.registry, &self.env)
    }

    /// Look up the value bound to `name` (composite or URL form).
    pub fn lookup(&self, name: &str) -> Result<BoundValue> {
        self.run_op(name, NamingOp::lookup)?
            .into_value(OpKind::Lookup)
    }

    /// Atomically bind `value` under `name`.
    pub fn bind(&self, name: &str, value: impl Into<BoundValue>) -> Result<()> {
        let value = value.into();
        self.run_op(name, |n| NamingOp::bind(n, value))?
            .into_done(OpKind::Bind)
    }

    /// Bind `value` under `name`, replacing any previous binding.
    pub fn rebind(&self, name: &str, value: impl Into<BoundValue>) -> Result<()> {
        let value = value.into();
        self.run_op(name, |n| NamingOp::rebind(n, value))?
            .into_done(OpKind::Rebind)
    }

    /// Remove the binding for `name`.
    pub fn unbind(&self, name: &str) -> Result<()> {
        self.run_op(name, NamingOp::unbind)?
            .into_done(OpKind::Unbind)
    }

    /// Rename a binding (within one naming system).
    pub fn rename(&self, old: &str, new: &str) -> Result<()> {
        let new_name = CompositeName::parse(new)?;
        self.run_op(old, |n| NamingOp::rename(n, new_name))?
            .into_done(OpKind::Rename)
    }

    /// Enumerate names bound under `name`.
    pub fn list(&self, name: &str) -> Result<Vec<NameClassPair>> {
        self.run_op(name, NamingOp::list)?.into_names(OpKind::List)
    }

    /// Enumerate bindings under `name`.
    pub fn list_bindings(&self, name: &str) -> Result<Vec<Binding>> {
        self.run_op(name, NamingOp::list_bindings)?
            .into_bindings(OpKind::ListBindings)
    }

    /// Create a subcontext.
    pub fn create_subcontext(&self, name: &str) -> Result<()> {
        self.run_op(name, NamingOp::create_subcontext)?
            .into_done(OpKind::CreateSubcontext)
    }

    /// Destroy an empty subcontext.
    pub fn destroy_subcontext(&self, name: &str) -> Result<()> {
        self.run_op(name, NamingOp::destroy_subcontext)?
            .into_done(OpKind::DestroySubcontext)
    }

    /// Fetch the attributes of `name`.
    pub fn get_attributes(&self, name: &str) -> Result<Attributes> {
        self.run_op(name, NamingOp::get_attributes)?
            .into_attrs(OpKind::GetAttributes)
    }

    /// Apply attribute modifications to `name`.
    pub fn modify_attributes(&self, name: &str, mods: &[AttrMod]) -> Result<()> {
        self.run_op(name, |n| NamingOp::modify_attributes(n, mods.to_vec()))?
            .into_done(OpKind::ModifyAttributes)
    }

    /// Atomically bind with attributes.
    pub fn bind_with_attrs(
        &self,
        name: &str,
        value: impl Into<BoundValue>,
        attrs: Attributes,
    ) -> Result<()> {
        let value = value.into();
        self.run_op(name, |n| NamingOp::bind_with_attrs(n, value, attrs))?
            .into_done(OpKind::BindWithAttrs)
    }

    /// Rebind with attributes.
    pub fn rebind_with_attrs(
        &self,
        name: &str,
        value: impl Into<BoundValue>,
        attrs: Attributes,
    ) -> Result<()> {
        let value = value.into();
        self.run_op(name, |n| NamingOp::rebind_with_attrs(n, value, attrs))?
            .into_done(OpKind::RebindWithAttrs)
    }

    /// Search under `name` with an LDAP-style filter string.
    pub fn search(
        &self,
        name: &str,
        filter: &str,
        controls: &SearchControls,
    ) -> Result<Vec<SearchItem>> {
        let parsed = Filter::parse(filter)?;
        self.run_op(name, |n| NamingOp::search(n, parsed, controls.clone()))?
            .into_found(OpKind::Search)
    }

    /// Subscribe to naming events at or under `name`. The subscription is
    /// registered with the provider owning the name's *first* naming
    /// system (event propagation across federation boundaries is a
    /// server-side capability no backend here offers; the paper's HDNS
    /// events are likewise per-service). Dropping the returned
    /// [`Subscription`] unsubscribes.
    pub fn add_listener(
        &self,
        name: &str,
        listener: Arc<dyn crate::event::NamingListener>,
    ) -> Result<Subscription> {
        let (ctx, composite) = self.route(name)?;
        let handle = ctx.add_listener(&composite, listener)?;
        Ok(Subscription {
            ctx,
            handle: Some(handle),
        })
    }

    /// Resolve `name` to a live context handle (for repeated operations
    /// against one service without re-routing).
    pub fn lookup_context(&self, name: &str) -> Result<Arc<dyn DirContext>> {
        // A bare service URL denotes the provider context itself — flat
        // services (Jini) have no empty-name binding to look up.
        if looks_like_url(name) {
            let url = RndiUrl::parse(name)?;
            if url.path.is_empty() {
                return self.registry.create_context(&url, &self.env);
            }
        }
        match self.lookup(name)? {
            BoundValue::Context(c) => Ok(c),
            BoundValue::Reference(r) => {
                let url_str = r.url_addr().ok_or(NamingError::NotAContext {
                    name: name.to_string(),
                })?;
                let url = RndiUrl::parse(url_str)?;
                if url.path.is_empty() {
                    self.registry.create_context(&url, &self.env)
                } else {
                    // Resolve through the path to reach the denoted context.
                    let root = self
                        .registry
                        .create_context(&url.with_path(CompositeName::empty()), &self.env)?;
                    let v = drive_op(root, NamingOp::lookup(url.path), &self.registry, &self.env)?
                        .into_value(OpKind::Lookup)?;
                    v.as_context().ok_or(NamingError::NotAContext {
                        name: name.to_string(),
                    })
                }
            }
            _ => Err(NamingError::NotAContext {
                name: name.to_string(),
            }),
        }
    }
}

/// A live event subscription; unsubscribes on drop.
// Public as the type `InitialContext::add_listener` returns.
pub struct Subscription {
    ctx: Arc<dyn DirContext>,
    handle: Option<crate::event::ListenerHandle>,
}

impl Subscription {
    /// Cancel explicitly (equivalent to dropping).
    pub fn cancel(mut self) {
        self.release();
    }

    fn release(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = self.ctx.remove_listener(h);
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::mem::MemContext;
    use crate::spi::UrlContextFactory;
    use crate::value::Reference;
    use parking_lot::Mutex;
    use std::collections::HashMap;

    struct MemFactory {
        scheme: String,
        hosts: Mutex<HashMap<String, MemContext>>,
    }

    impl MemFactory {
        fn new(scheme: &str) -> Arc<Self> {
            Arc::new(MemFactory {
                scheme: scheme.to_string(),
                hosts: Mutex::new(HashMap::new()),
            })
        }
        fn add_host(&self, host: &str, ctx: MemContext) {
            self.hosts.lock().insert(host.to_string(), ctx);
        }
    }

    impl UrlContextFactory for MemFactory {
        fn scheme(&self) -> &str {
            &self.scheme
        }
        fn create(&self, url: &RndiUrl, _: &Environment) -> Result<Arc<dyn DirContext>> {
            self.hosts
                .lock()
                .get(&url.host)
                .cloned()
                .map(|c| Arc::new(c) as Arc<dyn DirContext>)
                .ok_or_else(|| NamingError::service(format!("no host {}", url.host)))
        }
    }

    fn setup() -> (Arc<ProviderRegistry>, MemContext, MemContext) {
        let registry = Arc::new(ProviderRegistry::new());
        let jini = MemFactory::new("jini");
        let hdns = MemFactory::new("hdns");
        let jini_ctx = MemContext::new();
        let hdns_ctx = MemContext::new();
        jini.add_host("host1", jini_ctx.clone());
        hdns.add_host("host2", hdns_ctx.clone());
        registry.register(jini);
        registry.register(hdns);
        (registry, jini_ctx, hdns_ctx)
    }

    #[test]
    fn url_names_route_to_providers() {
        let (registry, jini_ctx, _) = setup();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        ic.bind("jini://host1/printer", "laser-3").unwrap();
        assert_eq!(
            ic.lookup("jini://host1/printer").unwrap().as_str(),
            Some("laser-3")
        );
        // Visible straight through the backend too.
        use crate::context::ContextExt;
        assert_eq!(
            jini_ctx.lookup_str("printer").unwrap().as_str(),
            Some("laser-3")
        );
    }

    #[test]
    fn paper_federation_example() {
        // The paper's §6 snippet: bind the Jini context into HDNS, then
        // access it through the composite URL hdns://host2/jiniCtx/...
        let (registry, _jini_ctx, _) = setup();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();

        ic.bind("jini://host1/service", "the-service").unwrap();
        // Bind a URL reference (the durable form of "bind the context").
        ic.bind(
            "hdns://host2/jiniCtx",
            BoundValue::Reference(Reference::url("jini://host1")),
        )
        .unwrap();

        let got = ic.lookup("hdns://host2/jiniCtx/service").unwrap();
        assert_eq!(got.as_str(), Some("the-service"));
    }

    #[test]
    fn default_context_for_plain_names() {
        let (registry, _, _) = setup();
        let root = MemContext::new();
        let ic = InitialContext::with_default(registry, Environment::new(), Arc::new(root.clone()));
        ic.bind("plain", "p").unwrap();
        assert_eq!(ic.lookup("plain").unwrap().as_str(), Some("p"));
    }

    #[test]
    fn plain_name_without_default_errors() {
        let (registry, _, _) = setup();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        assert!(matches!(
            ic.lookup("nope"),
            Err(NamingError::ConfigurationError { .. })
        ));
    }

    #[test]
    fn unknown_scheme_errors() {
        let (registry, _, _) = setup();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        assert!(matches!(
            ic.lookup("xyz://h/a"),
            Err(NamingError::NoProvider { .. })
        ));
    }

    #[test]
    fn provider_url_sets_default() {
        let (registry, jini_ctx, _) = setup();
        use crate::context::ContextExt;
        jini_ctx.bind_str("svc", "yes").unwrap();
        let env = Environment::new().with(keys::PROVIDER_URL, "jini://host1");
        let ic = InitialContext::new(registry, env).unwrap();
        assert_eq!(ic.lookup("svc").unwrap().as_str(), Some("yes"));
    }

    #[test]
    fn provider_url_with_path_is_rejected() {
        let (registry, _, _) = setup();
        let env = Environment::new().with(keys::PROVIDER_URL, "jini://host1/sub");
        assert!(matches!(
            InitialContext::new(registry, env),
            Err(NamingError::ConfigurationError { .. })
        ));
    }

    #[test]
    fn three_hop_federation() {
        // dns-style chain: hdns://host2/x -> jini://host1 ; lookup through.
        let (registry, jini_ctx, hdns_ctx) = setup();
        use crate::context::ContextExt;
        jini_ctx.create_subcontext(&"grp".into()).unwrap();
        jini_ctx.bind_str("grp/mokey", "the-monkey").unwrap();
        hdns_ctx
            .bind(
                &"dcl".into(),
                BoundValue::Reference(Reference::url("jini://host1/grp")),
            )
            .unwrap();

        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        let got = ic.lookup("hdns://host2/dcl/mokey").unwrap();
        assert_eq!(got.as_str(), Some("the-monkey"));
    }

    #[test]
    fn lookup_context_returns_live_handle() {
        let (registry, jini_ctx, hdns_ctx) = setup();
        use crate::context::ContextExt;
        jini_ctx.bind_str("a", "1").unwrap();
        hdns_ctx
            .bind(
                &"jiniCtx".into(),
                BoundValue::Reference(Reference::url("jini://host1")),
            )
            .unwrap();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        let handle = ic.lookup_context("hdns://host2/jiniCtx").unwrap();
        assert_eq!(handle.lookup_str("a").unwrap().as_str(), Some("1"));
    }

    #[test]
    fn directory_ops_through_urls() {
        let (registry, _, _) = setup();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        ic.bind_with_attrs(
            "jini://host1/node",
            BoundValue::str("stub"),
            Attributes::new().with("os", "linux"),
        )
        .unwrap();
        let attrs = ic.get_attributes("jini://host1/node").unwrap();
        assert_eq!(attrs.get("os").unwrap().first_str(), Some("linux"));
        let hits = ic
            .search("jini://host1", "(os=linux)", &SearchControls::default())
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn event_subscription_through_url() {
        use crate::event::CollectingListener;
        let (registry, _, _) = setup();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        let listener = CollectingListener::new();
        let sub = ic.add_listener("jini://host1", listener.clone()).unwrap();
        ic.bind("jini://host1/watched", "v").unwrap();
        assert_eq!(listener.count(), 1);
        // Unsubscribing (via drop) stops delivery.
        drop(sub);
        ic.bind("jini://host1/unwatched", "v").unwrap();
        assert_eq!(listener.count(), 1);
    }

    #[test]
    fn rename_through_url() {
        let (registry, _, _) = setup();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        ic.bind("jini://host1/old", "v").unwrap();
        ic.rename("jini://host1/old", "new").unwrap();
        assert!(ic.lookup("jini://host1/old").is_err());
        assert_eq!(ic.lookup("jini://host1/new").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn modify_attributes_through_urls() {
        let (registry, _, _) = setup();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        ic.bind_with_attrs(
            "jini://host1/e",
            BoundValue::Null,
            Attributes::new().with("state", "up"),
        )
        .unwrap();
        ic.modify_attributes(
            "jini://host1/e",
            &[AttrMod::Replace(crate::attrs::Attribute::single(
                "state", "down",
            ))],
        )
        .unwrap();
        assert_eq!(
            ic.get_attributes("jini://host1/e")
                .unwrap()
                .get("state")
                .unwrap()
                .first_str(),
            Some("down")
        );
    }

    #[test]
    fn subcontexts_through_urls() {
        let (registry, _, _) = setup();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        ic.create_subcontext("hdns://host2/dept").unwrap();
        ic.bind("hdns://host2/dept/x", "1").unwrap();
        assert!(matches!(
            ic.destroy_subcontext("hdns://host2/dept"),
            Err(NamingError::ContextNotEmpty { .. })
        ));
        ic.unbind("hdns://host2/dept/x").unwrap();
        ic.destroy_subcontext("hdns://host2/dept").unwrap();
    }

    #[test]
    fn malformed_url_reports_invalid_name() {
        let (registry, _, _) = setup();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        assert!(matches!(
            ic.lookup("jini://"),
            Err(NamingError::ConfigurationError { .. }) | Err(NamingError::InvalidName { .. })
        ));
        assert!(matches!(
            ic.lookup("jini://h:badport/x"),
            Err(NamingError::InvalidName { .. })
        ));
    }

    #[test]
    fn search_count_limit_through_federation() {
        let (registry, _, hdns_ctx) = setup();
        use crate::context::Context;
        let foreign = MemContext::new();
        for i in 0..10 {
            foreign
                .bind_with_attrs(
                    &CompositeName::from_components([format!("e{i}")]),
                    BoundValue::Null,
                    Attributes::new().with("kind", "x"),
                )
                .unwrap();
        }
        hdns_ctx
            .bind(&"mnt".into(), BoundValue::Context(Arc::new(foreign)))
            .unwrap();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        let hits = ic
            .search(
                "hdns://host2/mnt",
                "(kind=x)",
                &SearchControls {
                    count_limit: 4,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(hits.len(), 4, "count limit applies across the mount");
    }

    #[test]
    fn unbind_and_list_through_urls() {
        let (registry, _, _) = setup();
        let ic = InitialContext::new(registry, Environment::new()).unwrap();
        ic.bind("jini://host1/a", "1").unwrap();
        ic.bind("jini://host1/b", "2").unwrap();
        assert_eq!(ic.list("jini://host1").unwrap().len(), 2);
        ic.unbind("jini://host1/a").unwrap();
        assert_eq!(ic.list("jini://host1").unwrap().len(), 1);
    }
}
