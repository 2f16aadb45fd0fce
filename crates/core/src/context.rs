//! The `Context` / `DirContext` client surface, written once.
//!
//! JNDI defines a hierarchy of interfaces and lets each provider choose its
//! conformance level; here [`Context`] carries the naming operations and
//! [`DirContext`] adds directory (attribute/search) operations. Every method
//! is a [`NamingOp`] run through [`ProviderBackend::execute`], the one
//! method a provider implements: an operation its backend lacks it answers
//! there with [`NamingError::NotSupported`] — the "lowest-common-denominator
//! base interface, extensible per provider" design the paper leans on. A
//! backend that is the context its callers hold opts in with [`OpContext`];
//! nothing implements these methods by hand.

use std::sync::Arc;

use crate::attrs::{AttrMod, Attributes};
#[cfg(doc)]
use crate::error::NamingError;
use crate::error::Result;
use crate::event::{ListenerHandle, NamingListener};
use crate::filter::Filter;
use crate::name::CompositeName;
use crate::op::{NamingOp, OpKind};
use crate::spi::ProviderBackend;
use crate::value::BoundValue;

/// Name plus class of a bound object — what [`Context::list`] returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NameClassPair {
    /// Name relative to the listed context.
    pub name: String,
    /// Class of the bound value (see [`BoundValue::class_name`]).
    pub class_name: String,
}

/// Name plus the bound value — what [`Context::list_bindings`] returns.
#[derive(Clone, Debug)]
pub struct Binding {
    pub name: String,
    pub value: BoundValue,
}

/// Search scope, as in LDAP.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchScope {
    /// Only the named object itself.
    Object,
    /// Direct children of the named context.
    #[default]
    OneLevel,
    /// The whole subtree under the named context.
    Subtree,
}

/// Knobs for [`DirContext::search`].
#[derive(Clone, Debug, Default)]
pub struct SearchControls {
    pub scope: SearchScope,
    /// Stop after this many results; `0` = unlimited.
    pub count_limit: usize,
    /// Project returned attributes to these ids; `None` = all.
    pub return_attrs: Option<Vec<String>>,
    /// Also return the bound values, not just names/attributes.
    pub return_values: bool,
}

/// One search hit.
#[derive(Clone, Debug)]
pub struct SearchItem {
    /// Name relative to the search base.
    pub name: String,
    /// The bound value, when requested via `return_values`.
    pub value: Option<BoundValue>,
    pub attrs: Attributes,
}

/// A backend that is itself the context its callers hold — a provider
/// pipeline, a federated facade, the in-memory model. Opting in gives it the
/// whole [`Context`]/[`DirContext`] surface through the blanket impls below.
pub trait OpContext: ProviderBackend {}

impl<T: OpContext + ?Sized> Context for T {}
impl<T: OpContext + ?Sized> DirContext for T {}

/// Core naming operations (JNDI `javax.naming.Context`).
///
/// All names are composite; a provider resolves as many leading components
/// as belong to its own naming system and signals
/// [`NamingError::Continue`] when resolution crosses into a foreign system.
/// Each method reifies its call as a [`NamingOp`] and runs it through
/// [`ProviderBackend::execute`]; the op's kind is the method's.
pub trait Context: ProviderBackend {
    /// Retrieve the value bound to `name`.
    fn lookup(&self, name: &CompositeName) -> Result<BoundValue> {
        self.execute(&NamingOp::lookup(name.clone()))?
            .into_value(OpKind::Lookup)
    }

    /// Bind `value` under `name` **atomically**: fails with
    /// [`NamingError::AlreadyBound`] if the name is taken.
    fn bind(&self, name: &CompositeName, value: BoundValue) -> Result<()> {
        self.execute(&NamingOp::bind(name.clone(), value))?
            .into_done(OpKind::Bind)
    }

    /// Bind `value` under `name`, replacing any existing binding.
    fn rebind(&self, name: &CompositeName, value: BoundValue) -> Result<()> {
        self.execute(&NamingOp::rebind(name.clone(), value))?
            .into_done(OpKind::Rebind)
    }

    /// Remove the binding for `name`. Unbinding an unbound name succeeds
    /// (JNDI semantics).
    fn unbind(&self, name: &CompositeName) -> Result<()> {
        self.execute(&NamingOp::unbind(name.clone()))?
            .into_done(OpKind::Unbind)
    }

    /// Atomically rename a binding.
    fn rename(&self, old: &CompositeName, new: &CompositeName) -> Result<()> {
        self.execute(&NamingOp::rename(old.clone(), new.clone()))?
            .into_done(OpKind::Rename)
    }

    /// Enumerate the names (and value classes) bound in the context `name`.
    fn list(&self, name: &CompositeName) -> Result<Vec<NameClassPair>> {
        self.execute(&NamingOp::list(name.clone()))?
            .into_names(OpKind::List)
    }

    /// Enumerate names *and values* bound in the context `name`.
    fn list_bindings(&self, name: &CompositeName) -> Result<Vec<Binding>> {
        self.execute(&NamingOp::list_bindings(name.clone()))?
            .into_bindings(OpKind::ListBindings)
    }

    /// Create a subcontext (flat services do not nest).
    fn create_subcontext(&self, name: &CompositeName) -> Result<()> {
        self.execute(&NamingOp::create_subcontext(name.clone()))?
            .into_done(OpKind::CreateSubcontext)
    }

    /// Destroy an **empty** subcontext.
    fn destroy_subcontext(&self, name: &CompositeName) -> Result<()> {
        self.execute(&NamingOp::destroy_subcontext(name.clone()))?
            .into_done(OpKind::DestroySubcontext)
    }

    /// Subscribe to naming events under `name` (prefix-scoped).
    fn add_listener(
        &self,
        name: &CompositeName,
        listener: Arc<dyn NamingListener>,
    ) -> Result<ListenerHandle> {
        self.execute(&NamingOp::add_listener(name.clone(), listener))?
            .into_handle(OpKind::AddListener)
    }

    /// Cancel a subscription.
    fn remove_listener(&self, handle: ListenerHandle) -> Result<()> {
        self.execute(&NamingOp::remove_listener(handle))?
            .into_done(OpKind::RemoveListener)
    }
}

/// Directory operations (JNDI `javax.naming.directory.DirContext`).
pub trait DirContext: Context {
    /// Retrieve the attributes of `name` (all of them).
    fn get_attributes(&self, name: &CompositeName) -> Result<Attributes> {
        self.execute(&NamingOp::get_attributes(name.clone()))?
            .into_attrs(OpKind::GetAttributes)
    }

    /// Apply attribute modifications to `name`.
    fn modify_attributes(&self, name: &CompositeName, mods: &[AttrMod]) -> Result<()> {
        self.execute(&NamingOp::modify_attributes(name.clone(), mods.to_vec()))?
            .into_done(OpKind::ModifyAttributes)
    }

    /// Bind with attributes, atomically.
    fn bind_with_attrs(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
    ) -> Result<()> {
        self.execute(&NamingOp::bind_with_attrs(name.clone(), value, attrs))?
            .into_done(OpKind::BindWithAttrs)
    }

    /// Rebind with attributes.
    fn rebind_with_attrs(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
    ) -> Result<()> {
        self.execute(&NamingOp::rebind_with_attrs(name.clone(), value, attrs))?
            .into_done(OpKind::RebindWithAttrs)
    }

    /// Search `name` for entries matching `filter`: the named entry itself
    /// ([`SearchScope::Object`]), its children, or its whole subtree.
    fn search(
        &self,
        name: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
    ) -> Result<Vec<SearchItem>> {
        self.execute(&NamingOp::search(
            name.clone(),
            filter.clone(),
            controls.clone(),
        ))?
        .into_found(OpKind::Search)
    }
}

/// Convenience extension methods usable on any `Context` (string-name
/// entry points, mirroring the JNDI overloads that take `String`).
pub trait ContextExt: Context {
    /// `lookup` with a string name (parsed as a composite name).
    fn lookup_str(&self, name: &str) -> Result<BoundValue> {
        self.lookup(&CompositeName::parse(name)?)
    }

    /// `bind` with a string name.
    fn bind_str(&self, name: &str, value: impl Into<BoundValue>) -> Result<()> {
        self.bind(&CompositeName::parse(name)?, value.into())
    }

    /// `rebind` with a string name.
    fn rebind_str(&self, name: &str, value: impl Into<BoundValue>) -> Result<()> {
        self.rebind(&CompositeName::parse(name)?, value.into())
    }

    /// `unbind` with a string name.
    fn unbind_str(&self, name: &str) -> Result<()> {
        self.unbind(&CompositeName::parse(name)?)
    }

    /// `list` with a string name.
    fn list_str(&self, name: &str) -> Result<Vec<NameClassPair>> {
        self.list(&CompositeName::parse(name)?)
    }
}

impl<T: Context + ?Sized> ContextExt for T {}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::error::NamingError;
    use crate::op::OpOutcome;

    /// A provider of the lowest conformance level: the five core naming
    /// operations, and `NotSupported` from its own `execute` for the rest.
    struct Minimal;

    impl ProviderBackend for Minimal {
        fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
            match op.kind {
                OpKind::Lookup => Err(NamingError::not_found(op.name.to_string())),
                OpKind::Bind | OpKind::Rebind | OpKind::Unbind => Ok(OpOutcome::Done),
                OpKind::List => Ok(OpOutcome::Names(vec![])),
                OpKind::ListBindings => Ok(OpOutcome::Bindings(vec![])),
                other => Err(NamingError::unsupported(other.label())),
            }
        }
    }

    impl OpContext for Minimal {}

    #[test]
    fn optional_operations_report_unsupported() {
        let c = Minimal;
        let n = CompositeName::from("x");
        assert!(matches!(
            c.rename(&n, &n),
            Err(NamingError::NotSupported { .. })
        ));
        assert!(matches!(
            c.create_subcontext(&n),
            Err(NamingError::NotSupported { .. })
        ));
        assert!(matches!(
            c.destroy_subcontext(&n),
            Err(NamingError::NotSupported { .. })
        ));
        assert!(matches!(
            c.search(
                &n,
                &Filter::parse("(a=*)").unwrap(),
                &SearchControls::default()
            ),
            Err(NamingError::NotSupported { .. })
        ));
    }

    #[test]
    fn string_extension_methods_parse() {
        let c = Minimal;
        assert!(c.bind_str("a/b", "v").is_ok());
        assert!(matches!(
            c.lookup_str("a/b"),
            Err(NamingError::NameNotFound { .. })
        ));
        // Malformed names surface parse errors.
        assert!(matches!(
            c.lookup_str("'oops"),
            Err(NamingError::InvalidName { .. })
        ));
    }

    #[test]
    fn search_controls_defaults() {
        let c = SearchControls::default();
        assert_eq!(c.scope, SearchScope::OneLevel);
        assert_eq!(c.count_limit, 0);
        assert!(c.return_attrs.is_none());
        assert!(!c.return_values);
    }
}
