//! # dirserv — a simplified LDAP-style directory server (OpenLDAP analogue)
//!
//! Implements the slice of LDAP the paper's evaluation exercises:
//!
//! * [`dn::Dn`] — distinguished names (`cn=mokey,ou=dcl,o=emory`), held as
//!   one canonical leaf-first text and compared under LDAP case rules.
//! * [`entry::LdapEntry`] — entries with case-insensitive, multi-valued
//!   attributes.
//! * [`filter::LdapFilter`] — RFC 2254 search filters (this server's own
//!   implementation — the backends are deliberately heterogeneous).
//! * [`dit::Dit`] — the Directory Information Tree with add / delete /
//!   modify / modify-RDN / search (base, one-level, subtree scopes).
//! * [`server::DirectoryServer`] — result-code based operations with
//!   simple-bind authentication.
//! * [`throttle::ReadThrottle`] — the anti-DoS read limiter. The paper
//!   observed OpenLDAP's read throughput plateau near 800 ops/s "leaving
//!   server resources unsaturated" and conjectured "some automatic slowdown
//!   mechanism, such as a countermeasure against Denial-of-Service
//!   attacks"; this module makes that mechanism explicit so the benchmark
//!   harness can reproduce Figure 7.
//!
//! Independent of `rndi-core` by design: it models a pre-existing backend
//! that the integration middleware adapts to.

#![deny(unsafe_code)]

pub mod dit;
pub mod dn;
pub mod entry;
pub mod filter;
pub mod schema;
pub mod server;
pub mod throttle;

pub use dit::{Dit, Scope};
pub use dn::{Dn, Rdn};
pub use entry::{LdapAttr, LdapEntry};
pub use filter::LdapFilter;
pub use server::{DirectoryServer, LdapResult, ResultCode, ServerConfig};
pub use throttle::{Admit, ReadThrottle};
