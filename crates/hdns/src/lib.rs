//! # hdns — the Harness Distributed Naming Service
//!
//! A fault-tolerant, persistent, replicated naming service (paper §4):
//! "HDNS establishes a group of naming service nodes which maintain
//! consistent replicas of the registration data. Read requests can be
//! handled entirely by any of the nodes … Write requests, in turn, are
//! propagated to each member of the group."
//!
//! * [`store::HdnsStore`] — the hierarchical name→entry store each replica
//!   maintains, with deterministic [`store::Op`] application (so replicas
//!   that apply the same op sequence converge).
//! * [`node::HdnsNode`] — one replica: submits writes as group multicasts,
//!   serves reads locally, answers state-transfer requests, keeps its
//!   state on disk ("each node maintains persistent view of the
//!   registration data on a local disk"), and re-synchronizes after losing
//!   a PRIMARY_PARTITION decision.
//! * `proposal` — the byte form a write travels and is logged in: a
//!   versioned binary codec over [`groupcast::codec`], which still reads
//!   the JSON earlier versions wrote.
//! * [`wal`] — that disk state: a snapshot plus an append-only log of the
//!   proposals delivered since, written against a small [`wal::Storage`]
//!   trait; persistence costs O(op), compaction and recovery live here.
//! * [`realm::HdnsRealm`] — a deployment of replicas over a
//!   [`groupcast::Cluster`], with the synchronous drive loop clients use,
//!   plus crash/restart/partition fault injection.
//! * [`replica::Replica`] — one replica as its clients see it, whether a
//!   realm or an `rndi-cluster` node hosts it; [`replica::replicate`] is
//!   the one submit-and-wait loop every host writes through.
//!
//! Unlike the Jini lookup service, HDNS was co-designed with the JNDI
//! mapping in mind: `bind` is natively atomic (first delivered bind wins,
//! duplicates are rejected deterministically at every replica), so the
//! JNDI provider needs no distributed locking.

pub mod node;
mod proposal;
pub mod realm;
pub mod replica;
pub mod store;
pub mod wal;

pub use node::{HdnsEvent, HdnsNode, OpOutcome, ReplicaChannel, StateError, Ticket};
pub use realm::HdnsRealm;
pub use replica::{RealmError, Replica};
pub use store::{HdnsEntry, HdnsError, HdnsStore, Op};
pub use wal::RecoveryReport;

/// A unique scratch directory per test, removed when the guard drops.
#[cfg(test)]
pub(crate) struct TestDir(pub(crate) std::path::PathBuf);

#[cfg(test)]
impl TestDir {
    pub(crate) fn new(tag: &str) -> TestDir {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("hdns-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TestDir(dir)
    }
}

#[cfg(test)]
impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
