//! # minidns — a simplified authoritative DNS server and caching resolver
//!
//! The Bind analogue in the paper's evaluation: a naming service that
//! "scales world-wide but is specialized, lacks strong consistency, and has
//! limited query capabilities … suitable for managing simple textual data
//! collections for which updates are rare". The federation design anchors
//! the whole hierarchy in DNS: `dns://global/emory/mathcs/dcl/mokey` first
//! asks DNS for the nearest HDNS node of the `global` federation.
//!
//! * [`name::DnsName`] — case-insensitive dotted labels.
//! * [`rr`] — resource records (A, NS, CNAME, TXT, SRV, PTR).
//! * [`zone::Zone`] — authoritative data with delegation (NS referral) and
//!   CNAME handling.
//! * [`server::AuthServer`] — hosts zones, answers queries with proper
//!   rcodes/referrals.
//! * [`resolver::Resolver`] — resolution against its servers with a TTL
//!   cache that caches NXDOMAIN for a whole subtree (RFC 8020).

pub mod name;
pub mod resolver;
pub mod rr;
pub mod server;
pub mod zone;

pub use name::DnsName;
pub use resolver::{ResolveError, Resolver};
pub use rr::{RData, RecordType, ResourceRecord};
pub use server::{AuthServer, Rcode, Response};
pub use zone::Zone;
