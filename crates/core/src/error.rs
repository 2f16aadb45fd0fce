//! Error model for naming and directory operations.
//!
//! Mirrors the JNDI `NamingException` hierarchy, flattened into one enum.
//! The [`NamingError::Continue`] variant is the SPI-level federation
//! mechanism (JNDI's `CannotProceedException`): a provider that resolves a
//! prefix of a composite name to a foreign context/reference returns
//! `Continue`, and the [`InitialContext`](crate::initial::InitialContext)
//! resumes resolution in the next naming system.

use std::fmt;

use crate::name::CompositeName;
use crate::spi::boundary::Holds;
use crate::value::BoundValue;

/// Result alias used throughout the API.
pub type Result<T> = std::result::Result<T, NamingError>;

/// Anything that can go wrong during a naming or directory operation.
#[derive(Debug, Clone, PartialEq)]
pub enum NamingError {
    /// The name does not resolve to a binding.
    NameNotFound { name: String },
    /// `bind` found an existing binding (atomic-bind semantics).
    AlreadyBound { name: String },
    /// An intermediate component resolved to a non-context value.
    NotAContext { name: String },
    /// A context operation was applied to a leaf binding, or vice versa.
    ContextExpected { name: String },
    /// The name is syntactically invalid for this naming system.
    InvalidName { name: String, reason: String },
    /// Search filter could not be parsed or evaluated.
    InvalidSearchFilter { filter: String, reason: String },
    /// The operation is not supported by this provider (JNDI providers may
    /// implement only a conformance subset).
    NotSupported { operation: String },
    /// Authentication/authorization failure.
    NoPermission { detail: String },
    /// The backing service could not be reached or failed mid-operation.
    ServiceFailure { detail: String },
    /// The operation exceeded its deadline.
    Timeout { detail: String },
    /// No provider is registered for the URL scheme.
    NoProvider { scheme: String },
    /// The environment is missing a required property.
    ConfigurationError { detail: String },
    /// A subcontext slated for destruction still has children.
    ContextNotEmpty { name: String },
    /// A lease renewal failed and the entry may have expired remotely.
    LeaseExpired { name: String },
    /// Federation continuation: `resolved` is the object at the boundary of
    /// this naming system and `remaining` the suffix still to resolve;
    /// `holds`, when the provider can say, how far and how long every name
    /// beneath the boundary continues the same way.
    Continue {
        resolved: BoundValue,
        remaining: CompositeName,
        holds: Option<Box<Holds>>,
    },
    /// Federation nested too deeply (cycle guard).
    FederationDepthExceeded { depth: usize },
    /// The serving side shed this operation under overload instead of
    /// queueing it past its deadline. Transient by design: the caller
    /// should back off at least `retry_after_ms` before retrying.
    Overloaded { retry_after_ms: u64 },
}

impl NamingError {
    /// Shorthand constructor for [`NamingError::NameNotFound`].
    pub fn not_found(name: impl Into<String>) -> Self {
        NamingError::NameNotFound { name: name.into() }
    }

    /// Shorthand constructor for [`NamingError::AlreadyBound`].
    pub fn already_bound(name: impl Into<String>) -> Self {
        NamingError::AlreadyBound { name: name.into() }
    }

    /// Shorthand constructor for [`NamingError::InvalidName`].
    pub fn invalid_name(name: impl Into<String>, reason: impl Into<String>) -> Self {
        NamingError::InvalidName {
            name: name.into(),
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`NamingError::ServiceFailure`].
    pub fn service(detail: impl Into<String>) -> Self {
        NamingError::ServiceFailure {
            detail: detail.into(),
        }
    }

    /// Shorthand constructor for [`NamingError::NotSupported`].
    pub fn unsupported(operation: impl Into<String>) -> Self {
        NamingError::NotSupported {
            operation: operation.into(),
        }
    }

    /// Shorthand constructor for [`NamingError::Overloaded`].
    pub fn overloaded(retry_after_ms: u64) -> Self {
        NamingError::Overloaded { retry_after_ms }
    }

    /// Whether this is the internal federation-continuation signal.
    pub fn is_continue(&self) -> bool {
        matches!(self, NamingError::Continue { .. })
    }

    /// Whether the serving side shed this op under overload.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, NamingError::Overloaded { .. })
    }
}

impl fmt::Display for NamingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NamingError::NameNotFound { name } => write!(f, "name not found: {name}"),
            NamingError::AlreadyBound { name } => write!(f, "name already bound: {name}"),
            NamingError::NotAContext { name } => {
                write!(f, "intermediate name is not a context: {name}")
            }
            NamingError::ContextExpected { name } => {
                write!(f, "operation requires a context: {name}")
            }
            NamingError::InvalidName { name, reason } => {
                write!(f, "invalid name {name:?}: {reason}")
            }
            NamingError::InvalidSearchFilter { filter, reason } => {
                write!(f, "invalid search filter {filter:?}: {reason}")
            }
            NamingError::NotSupported { operation } => {
                write!(f, "operation not supported by provider: {operation}")
            }
            NamingError::NoPermission { detail } => write!(f, "no permission: {detail}"),
            NamingError::ServiceFailure { detail } => write!(f, "service failure: {detail}"),
            NamingError::Timeout { detail } => write!(f, "timed out: {detail}"),
            NamingError::NoProvider { scheme } => {
                write!(f, "no service provider registered for scheme {scheme:?}")
            }
            NamingError::ConfigurationError { detail } => {
                write!(f, "configuration error: {detail}")
            }
            NamingError::ContextNotEmpty { name } => {
                write!(f, "context not empty: {name}")
            }
            NamingError::LeaseExpired { name } => write!(f, "lease expired: {name}"),
            NamingError::Continue { remaining, .. } => {
                write!(f, "cannot proceed; remaining name: {remaining}")
            }
            NamingError::FederationDepthExceeded { depth } => {
                write!(f, "federation resolution exceeded depth {depth}")
            }
            NamingError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for NamingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NamingError::not_found("a/b");
        assert!(e.to_string().contains("a/b"));
        let e = NamingError::invalid_name("x", "bad escape");
        assert!(e.to_string().contains("bad escape"));
    }

    #[test]
    fn continue_detection() {
        let e = NamingError::Continue {
            resolved: BoundValue::Null,
            remaining: CompositeName::empty(),
            holds: None,
        };
        assert!(e.is_continue());
        assert!(!NamingError::not_found("x").is_continue());
    }
}
