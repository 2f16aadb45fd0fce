//! The replica-facing surface: what a client of *one* HDNS replica calls,
//! whoever hosts it.
//!
//! [`Replica`] is exactly what the JNDI provider needs of "its" node. A
//! realm replica `(HdnsRealm, node)` implements it over the simnet drive
//! loop ([`crate::realm`]), an `rndi-cluster` node over its write gate and
//! TCP pacer. Both write through [`replicate`], the one submit → pump →
//! outcome → abandon loop.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::Mutex;
use rndi_obs::TraceCtx;

use crate::node::{HdnsEvent, HdnsNode, OpOutcome, ReplicaChannel};
use crate::store::{HdnsEntry, HdnsError, Op};

/// Client-visible failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RealmError {
    Store(HdnsError),
    /// The contacted node is down, or lost the write before ordering it.
    NodeUnavailable,
    /// The contacted node is outside the primary partition and refuses
    /// writes, so that none it acknowledged can be lost on heal.
    NotPrimary,
    /// The write did not come back ordered within the host's budget; it
    /// was abandoned, not acknowledged (it may still apply).
    TimedOut,
}

impl std::fmt::Display for RealmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealmError::Store(e) => write!(f, "{e}"),
            RealmError::NodeUnavailable => f.write_str("hdns node unavailable"),
            RealmError::NotPrimary => f.write_str("not in the primary partition: writes refused"),
            RealmError::TimedOut => f.write_str("write not ordered within budget"),
        }
    }
}

impl std::error::Error for RealmError {}

/// One HDNS replica as its clients see it.
pub trait Replica: Send + Sync {
    /// Replica-local read ("nearest node" semantics).
    fn lookup(&self, path: &str) -> Option<HdnsEntry>;
    /// Replica-local listing of `prefix`'s direct children.
    fn list(&self, prefix: &str) -> Vec<(String, HdnsEntry)>;
    /// Replicate one write through this replica; `Ok` once its ordered
    /// self-delivery applied. `trace` links the host's server span, where
    /// it records one, under the caller's.
    fn write(&self, op: Op, trace: Option<&TraceCtx>) -> Result<(), RealmError>;
    /// Drain this replica's change events.
    fn take_events(&self) -> Vec<HdnsEvent>;
    /// The replica's generation ([`HdnsNode::generation`]): the same
    /// counter for as long as this replica is served, restarts included.
    fn generation(&self) -> Arc<AtomicU64>;
    /// Let pending group traffic reach this replica.
    fn pump(&self);
}

/// Replicate `op` through `node` and wait for its ordered self-delivery.
///
/// `pump` moves group traffic the way the host does — a simnet drive, a
/// `process()` between naps while a pacer carries frames — and returns
/// `false` once the host's budget is spent. A write given up on has its
/// ticket abandoned: nobody will ask for it again.
pub fn replicate<C: ReplicaChannel>(
    node: &Mutex<HdnsNode<C>>,
    op: Op,
    mut pump: impl FnMut() -> bool,
) -> Result<(), RealmError> {
    let ticket = node
        .lock()
        .submit(op)
        .map_err(|_| RealmError::NodeUnavailable)?;
    loop {
        let more = pump();
        // A statement of its own: the guard must be gone before `abandon`.
        let outcome = node.lock().outcome(ticket);
        match outcome {
            OpOutcome::Done(r) => return r.map_err(RealmError::Store),
            OpOutcome::Lost => return Err(RealmError::NodeUnavailable),
            OpOutcome::Pending if more => {}
            OpOutcome::Pending => {
                node.lock().abandon(ticket);
                return Err(RealmError::TimedOut);
            }
        }
    }
}
