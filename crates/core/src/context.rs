//! The `Context` / `DirContext` trait hierarchy.
//!
//! JNDI deliberately defines a hierarchy of interfaces and lets each
//! provider choose its conformance level; here [`Context`] carries the
//! naming operations and [`DirContext`] adds directory (attribute/search)
//! operations. Optional operations have default implementations returning
//! [`NamingError::NotSupported`], so a minimal provider only implements the
//! core set — exactly the "lowest-common-denominator base interface,
//! extensible per provider" design the paper leans on.

use std::sync::Arc;

use crate::attrs::{AttrMod, Attributes};
use crate::error::{NamingError, Result};
use crate::event::{ListenerHandle, NamingListener};
use crate::filter::Filter;
use crate::name::CompositeName;
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

/// Core naming operations (JNDI `javax.naming.Context`).
///
/// All names are composite; a provider resolves as many leading components
/// as belong to its own naming system and signals
/// [`NamingError::Continue`] when resolution crosses into a foreign system.
pub trait Context: Send + Sync {
    /// Retrieve the value bound to `name`.
    fn lookup(&self, name: &CompositeName) -> Result<BoundValue>;

    /// Bind `value` under `name` **atomically**: fails with
    /// [`NamingError::AlreadyBound`] if the name is taken.
    fn bind(&self, name: &CompositeName, value: BoundValue) -> Result<()>;

    /// Bind `value` under `name`, replacing any existing binding.
    fn rebind(&self, name: &CompositeName, value: BoundValue) -> Result<()>;

    /// Remove the binding for `name`. Unbinding an unbound name succeeds
    /// (JNDI semantics).
    fn unbind(&self, name: &CompositeName) -> Result<()>;

    /// Atomically rename a binding. Optional.
    fn rename(&self, _old: &CompositeName, _new: &CompositeName) -> Result<()> {
        Err(NamingError::unsupported("rename"))
    }

    /// Enumerate the names (and value classes) bound in the context `name`.
    fn list(&self, name: &CompositeName) -> Result<Vec<NameClassPair>>;

    /// Enumerate names *and values* bound in the context `name`.
    fn list_bindings(&self, name: &CompositeName) -> Result<Vec<Binding>>;

    /// Create a subcontext. Optional (flat services do not nest).
    fn create_subcontext(&self, _name: &CompositeName) -> Result<()> {
        Err(NamingError::unsupported("create_subcontext"))
    }

    /// Destroy an **empty** subcontext. Optional.
    fn destroy_subcontext(&self, _name: &CompositeName) -> Result<()> {
        Err(NamingError::unsupported("destroy_subcontext"))
    }

    /// Subscribe to naming events under `name` (prefix-scoped). Optional.
    fn add_listener(
        &self,
        _name: &CompositeName,
        _listener: Arc<dyn NamingListener>,
    ) -> Result<ListenerHandle> {
        Err(NamingError::unsupported("add_listener"))
    }

    /// Cancel a subscription. Optional.
    fn remove_listener(&self, _handle: ListenerHandle) -> Result<()> {
        Err(NamingError::unsupported("remove_listener"))
    }

    /// A human-readable identifier for diagnostics (provider + instance).
    fn provider_id(&self) -> String {
        "anonymous".to_string()
    }

    /// Execute a reified operation natively, or `None` to have
    /// [`crate::op::dispatch`] bridge to the per-method trait calls.
    /// Contexts that run op values (every [`crate::spi::OpContext`]:
    /// provider pipelines, federated facades) answer here so op annotations
    /// — the trace context above all — survive instead of being dropped
    /// when the bridge rebuilds a bare op from trait-method arguments.
    fn execute_reified(&self, _op: &crate::op::NamingOp) -> Option<Result<crate::op::OpOutcome>> {
        None
    }

    /// The compound-name syntax of this naming system (JNDI's
    /// `getNameParser`): how a single composite component would be written
    /// natively — dots for DNS, commas for LDAP, slashes by default.
    fn compound_syntax(&self) -> crate::name::CompoundSyntax {
        crate::name::CompoundSyntax::path()
    }
}

/// Directory operations (JNDI `javax.naming.directory.DirContext`).
pub trait DirContext: Context {
    /// Retrieve the attributes of `name` (all of them).
    fn get_attributes(&self, name: &CompositeName) -> Result<Attributes>;

    /// Apply attribute modifications to `name`. Optional.
    fn modify_attributes(&self, _name: &CompositeName, _mods: &[AttrMod]) -> Result<()> {
        Err(NamingError::unsupported("modify_attributes"))
    }

    /// Bind with attributes, atomically.
    fn bind_with_attrs(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
    ) -> Result<()>;

    /// Rebind with attributes.
    fn rebind_with_attrs(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
    ) -> Result<()>;

    /// Search the context `name` for entries matching `filter`.
    fn search(
        &self,
        _name: &CompositeName,
        _filter: &Filter,
        _controls: &SearchControls,
    ) -> Result<Vec<SearchItem>> {
        Err(NamingError::unsupported("search"))
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

    /// A do-nothing context exercising the default conformance level.
    struct Minimal;

    impl Context for Minimal {
        fn lookup(&self, name: &CompositeName) -> Result<BoundValue> {
            Err(NamingError::not_found(name.to_string()))
        }
        fn bind(&self, _: &CompositeName, _: BoundValue) -> Result<()> {
            Ok(())
        }
        fn rebind(&self, _: &CompositeName, _: BoundValue) -> Result<()> {
            Ok(())
        }
        fn unbind(&self, _: &CompositeName) -> Result<()> {
            Ok(())
        }
        fn list(&self, _: &CompositeName) -> Result<Vec<NameClassPair>> {
            Ok(vec![])
        }
        fn list_bindings(&self, _: &CompositeName) -> Result<Vec<Binding>> {
            Ok(vec![])
        }
    }

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
