//! One HDNS replica.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use groupcast::{Addr, ChannelEvent, GroupChannel, SendError, View};
use rndi_obs::metrics::{self, names, Counter};

use crate::proposal::Proposal;
use crate::store::{HdnsEntry, HdnsError, HdnsStore, Op};
use crate::wal::{FsStorage, RecoveryReport, Storage, Wal};

/// The group-communication surface one replica needs: the
/// [`GroupChannel`] subset `HdnsNode` actually calls, as a trait so the
/// same replica logic (proposals, tickets, state transfer, persistence)
/// runs over the deterministic in-process cluster *or* a real TCP
/// membership plane (`rndi-cluster`).
pub trait ReplicaChannel {
    /// This member's group address.
    fn addr(&self) -> Addr;
    /// Join the named group.
    fn connect(&self, group: &str) -> Result<(), SendError>;
    /// Leave the group.
    fn disconnect(&self);
    /// Multicast to the group under the stack's ordering discipline.
    fn mcast(&self, bytes: Vec<u8>) -> Result<(), SendError>;
    /// Drain pending channel events.
    fn poll(&self) -> Vec<ChannelEvent>;
    /// Answer a [`ChannelEvent::StateRequest`].
    fn provide_state(&self, to: Addr, bytes: Vec<u8>) -> Result<(), SendError>;
}

impl ReplicaChannel for GroupChannel {
    fn addr(&self) -> Addr {
        GroupChannel::addr(self)
    }
    fn connect(&self, group: &str) -> Result<(), SendError> {
        GroupChannel::connect(self, group)
    }
    fn disconnect(&self) {
        GroupChannel::disconnect(self)
    }
    fn mcast(&self, bytes: Vec<u8>) -> Result<(), SendError> {
        GroupChannel::mcast(self, bytes)
    }
    fn poll(&self) -> Vec<ChannelEvent> {
        GroupChannel::poll(self)
    }
    fn provide_state(&self, to: Addr, bytes: Vec<u8>) -> Result<(), SendError> {
        GroupChannel::provide_state(self, to, bytes)
    }
}

/// Identifies a submitted write; resolved once the replica delivers (and
/// applies) its own operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket(pub u64);

/// The fate of a submitted operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// Not yet delivered back to the submitter.
    Pending,
    /// Applied; this is the deterministic result every replica computed.
    Done(Result<(), HdnsError>),
    /// The op will not resolve here: the replica died first, the
    /// proposal came back undecodable, or the ticket is unknown.
    Lost,
}

/// Change notifications a replica emits as it applies operations — the
/// substrate for the JNDI provider's event support.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HdnsEvent {
    Bound {
        path: String,
    },
    Changed {
        path: String,
    },
    Removed {
        path: String,
    },
    Renamed {
        from: String,
        to: String,
    },
    /// State was replaced wholesale (join or post-partition resync).
    Resynced,
}

/// `rndi_hdns_undecodable_proposals_total`, resolved once per process:
/// deliveries sit on the write path.
fn undecodable_proposals() -> &'static Counter {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| metrics::counter(names::HDNS_UNDECODABLE_PROPOSALS, &[]))
}

/// `rndi_hdns_undecodable_state_total`, resolved once like the above.
fn undecodable_state() -> &'static Counter {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| metrics::counter(names::HDNS_UNDECODABLE_STATE, &[]))
}

/// `rndi_hdns_state_send_errors_total`, resolved once like the above.
fn state_send_errors() -> &'static Counter {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| metrics::counter(names::HDNS_STATE_SEND_ERRORS, &[]))
}

/// Why a state transfer failed at this replica (see
/// [`HdnsNode::last_state_error`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// The snapshot this replica was handed does not decode; the store
    /// it had is untouched.
    Undecodable(String),
    /// This replica, coordinating, could not send its snapshot to `to`.
    Send { to: Addr, error: SendError },
}

/// One replica of the naming service, generic over how its group
/// messages travel (defaults to the in-process [`GroupChannel`]).
pub struct HdnsNode<C: ReplicaChannel = GroupChannel> {
    channel: C,
    store: HdnsStore,
    view: Option<View>,
    next_op: u64,
    tickets: HashMap<u64, OpOutcome>,
    events: Vec<HdnsEvent>,
    /// Bumped after every op applied and every state installed: what a
    /// reader cached stays right while this reads what it read first.
    generation: Arc<AtomicU64>,
    /// Snapshot + op log on disk; `None` for a memory-only replica.
    wal: Option<Wal>,
    /// What start-up recovery found.
    recovery: RecoveryReport,
    /// Why the most recent persistence step (log append or compaction)
    /// failed, if it did.
    persist_error: Option<std::io::Error>,
    /// Why the most recent state transfer (either direction) failed, if
    /// it did.
    state_error: Option<StateError>,
    alive: bool,
}

impl<C: ReplicaChannel> HdnsNode<C> {
    /// Create a replica on `channel`. With a `data_path` the replica keeps
    /// a snapshot there and an op log beside it (see [`crate::wal`]), and
    /// starts from whatever they hold (cold-start recovery: "the service
    /// can thus recover the state after a complete shutdown/restart").
    /// Recovery never fails the constructor; [`HdnsNode::recovery`] says
    /// what it found.
    pub fn new(channel: C, data_path: Option<PathBuf>) -> HdnsNode<C> {
        let storage = data_path.map(|p| Box::new(FsStorage::new(p)) as Box<dyn Storage + Send>);
        Self::recover(channel, storage)
    }

    /// [`HdnsNode::new`] over any [`Storage`] — how the crash-point tests
    /// put a faulty disk under an otherwise real replica.
    // Public because those tests are an integration target.
    pub fn with_storage(channel: C, storage: Box<dyn Storage + Send>) -> HdnsNode<C> {
        Self::recover(channel, Some(storage))
    }

    fn recover(channel: C, storage: Option<Box<dyn Storage + Send>>) -> HdnsNode<C> {
        let (wal, store, recovery) = match storage.map(Wal::open) {
            Some((wal, store, recovery)) => (Some(wal), store, recovery),
            None => (None, HdnsStore::new(), RecoveryReport::default()),
        };
        HdnsNode {
            channel,
            store,
            view: None,
            next_op: 0,
            tickets: HashMap::new(),
            events: Vec::new(),
            generation: Arc::default(),
            wal,
            recovery,
            persist_error: None,
            state_error: None,
            alive: true,
        }
    }

    /// This replica's group address.
    pub fn addr(&self) -> Addr {
        self.channel.addr()
    }

    /// Join the named group.
    pub fn connect(&self, group: &str) -> Result<(), SendError> {
        self.channel.connect(group)
    }

    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// This replica's generation: a counter bumped after every op it
    /// applies and every state it installs, so a reader that saw one value
    /// and sees it again has missed no change here.
    pub fn generation(&self) -> &Arc<AtomicU64> {
        &self.generation
    }

    /// Count on from `previous`'s generation (a restart of the replica it
    /// was), one past it: what was read from the old incarnation is stale.
    pub(crate) fn succeed(&mut self, previous: &HdnsNode<C>) {
        self.generation = previous.generation.clone();
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// The currently installed membership view.
    pub fn view(&self) -> Option<&View> {
        self.view.as_ref()
    }

    /// Replica-local read: any node serves lookups without communication
    /// ("read requests can be handled entirely by any of the nodes"). The
    /// answer shares the stored record; nothing is copied.
    pub fn lookup(&self, path: &str) -> Option<HdnsEntry> {
        self.store.get(path).cloned()
    }

    /// Replica-local listing of direct children.
    pub fn list(&self, prefix: &str) -> Vec<(String, HdnsEntry)> {
        self.store
            .list(prefix)
            .into_iter()
            .map(|(n, e)| (n, e.clone()))
            .collect()
    }

    /// Entries currently stored.
    pub fn entry_count(&self) -> usize {
        self.store.len()
    }

    /// Serialized store state — replica-convergence checks and backups.
    pub fn store_snapshot(&self) -> Vec<u8> {
        self.store.snapshot()
    }

    /// Submit a write: multicast to the group. Resolution arrives via
    /// [`HdnsNode::outcome`] after the realm drives message processing.
    pub fn submit(&mut self, op: Op) -> Result<Ticket, SendError> {
        let op_id = self.next_op;
        self.next_op += 1;
        self.channel.mcast(Proposal { op_id, op }.encode())?;
        self.tickets.insert(op_id, OpOutcome::Pending);
        Ok(Ticket(op_id))
    }

    /// Check (and consume, when resolved) a ticket's outcome.
    pub fn outcome(&mut self, ticket: Ticket) -> OpOutcome {
        match self.tickets.get(&ticket.0) {
            Some(OpOutcome::Pending) => OpOutcome::Pending,
            Some(_) => self.tickets.remove(&ticket.0).expect("present"),
            None => OpOutcome::Lost,
        }
    }

    /// Stop waiting for `ticket`: its outcome will not be asked for, and a
    /// delivery that still arrives applies without recording one.
    pub fn abandon(&mut self, ticket: Ticket) {
        self.tickets.remove(&ticket.0);
    }

    /// Tickets submitted and neither read as resolved nor abandoned.
    pub fn open_tickets(&self) -> usize {
        self.tickets.len()
    }

    /// Drain accumulated change events.
    pub fn take_events(&mut self) -> Vec<HdnsEvent> {
        std::mem::take(&mut self.events)
    }

    /// Process pending channel events: apply delivered ops, answer state
    /// requests, install state. Call after each cluster pump.
    ///
    /// Every proposal delivered here is appended to the op log — the bytes
    /// as delivered, one `write` for the whole call — before the call
    /// returns, which is before any ticket it resolved can be read as
    /// `Done`. No sync happens on that path; only a compaction syncs.
    ///
    /// A delivery that does not decode — another version's proposal, or
    /// damage — is not applied, numbered or logged, so this replica no
    /// longer matches one that could read it: it is counted in
    /// `rndi_hdns_undecodable_proposals_total`, and when it is this
    /// replica's own, the write it carried resolves as [`OpOutcome::Lost`].
    pub fn process(&mut self) {
        for ev in self.channel.poll() {
            match ev {
                ChannelEvent::Message { from, bytes } => {
                    let Ok(p) = Proposal::decode(&bytes) else {
                        undecodable_proposals().inc();
                        if from == self.channel.addr() {
                            self.lose_oldest_pending();
                        }
                        continue;
                    };
                    let existed = match &p.op {
                        Op::Bind { path, .. } | Op::Unbind { path } => {
                            self.store.get(path).is_some()
                        }
                        _ => false,
                    };
                    let event = Self::event_of(&p.op, existed);
                    let result = self.store.apply_owned(p.op);
                    // Failed ops are logged too: they advance
                    // `ops_applied`, which is what numbers the records.
                    if let Some(wal) = &mut self.wal {
                        wal.stage(self.store.ops_applied, &bytes);
                    }
                    if result.is_ok() {
                        self.generation.fetch_add(1, Ordering::AcqRel);
                    }
                    if let (Ok(()), Some(event)) = (&result, event) {
                        self.events.push(event);
                    }
                    if from == self.channel.addr() {
                        // Absent when the submitter abandoned the ticket.
                        if let Some(outcome) = self.tickets.get_mut(&p.op_id) {
                            *outcome = OpOutcome::Done(result);
                        }
                    }
                }
                ChannelEvent::View(v) => {
                    self.view = Some(v);
                }
                ChannelEvent::StateRequest { joiner } => {
                    let sent = self.channel.provide_state(joiner, self.store.snapshot());
                    self.state_error = sent.err().map(|error| {
                        state_send_errors().inc();
                        StateError::Send { to: joiner, error }
                    });
                }
                ChannelEvent::SetState { bytes } => match HdnsStore::restore(&bytes) {
                    Ok(store) => {
                        self.install_state(store);
                        self.state_error = None;
                    }
                    Err(why) => {
                        undecodable_state().inc();
                        self.state_error = Some(StateError::Undecodable(why));
                    }
                },
                ChannelEvent::ResyncNeeded { .. } => {
                    // The winner's coordinator pushes state; nothing to do
                    // but wait for the SetState.
                }
                ChannelEvent::Crashed { .. } => {
                    self.alive = false;
                    for outcome in self.tickets.values_mut() {
                        if *outcome == OpOutcome::Pending {
                            *outcome = OpOutcome::Lost;
                        }
                    }
                }
            }
        }
        self.flush_log();
        if self.wal.as_ref().is_some_and(Wal::wants_compaction) {
            self.persist();
        }
    }

    /// An own delivery came back unreadable, so its op id with it. Both
    /// orderings deliver one sender's messages in the order sent: it was
    /// the oldest write still pending.
    fn lose_oldest_pending(&mut self) {
        let oldest = self
            .tickets
            .iter_mut()
            .filter(|(_, outcome)| **outcome == OpOutcome::Pending)
            .min_by_key(|(op_id, _)| **op_id);
        if let Some((_, outcome)) = oldest {
            *outcome = OpOutcome::Lost;
        }
    }

    /// Replace the store wholesale (join, or the losing side of a
    /// partition) and make the new state the snapshot on disk.
    fn install_state(&mut self, store: HdnsStore) {
        // Log records number themselves by `ops_applied`, and recovery
        // skips those at or below the snapshot's. Records of the outgoing
        // lineage that outrank the incoming state would instead be
        // replayed onto it if a crash fell between the snapshot rename
        // and the log truncation below — so fold them away first.
        if self.store.ops_applied > store.ops_applied {
            self.persist();
        }
        self.store = store;
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.events.push(HdnsEvent::Resynced);
        if let Some(wal) = &mut self.wal {
            wal.lineage_changed();
        }
        self.persist();
    }

    /// The change event `op` causes if it applies, given whether its path
    /// was bound before: an unbind of a name that was never bound applies
    /// (it is idempotent) but removes nothing, so it causes none.
    fn event_of(op: &Op, existed: bool) -> Option<HdnsEvent> {
        Some(match op {
            Op::Bind { path, .. } if existed => HdnsEvent::Changed { path: path.clone() },
            Op::Bind { path, .. } => HdnsEvent::Bound { path: path.clone() },
            Op::CreateContext { path } => HdnsEvent::Bound { path: path.clone() },
            Op::Unbind { path } if existed => HdnsEvent::Removed { path: path.clone() },
            Op::Unbind { .. } => return None,
            Op::Rename { from, to } => HdnsEvent::Renamed {
                from: from.clone(),
                to: to.clone(),
            },
            Op::SetAttrs { path, .. } => HdnsEvent::Changed { path: path.clone() },
        })
    }

    /// Write out the records staged by the current `process()` call.
    fn flush_log(&mut self) {
        if let Some(flushed) = self.wal.as_mut().and_then(Wal::flush) {
            self.note_persist(flushed);
        }
    }

    /// Compact: write the store as the new snapshot (atomically, synced)
    /// and empty the op log. Runs by itself when the log outgrows its
    /// threshold, on state transfer and "upon process exit" via
    /// [`HdnsNode::shutdown`]. A failure is counted in
    /// `rndi_hdns_persist_errors_total` and kept for
    /// [`HdnsNode::last_persist_error`]; the replica keeps serving from
    /// memory and retries as the log grows.
    pub fn persist(&mut self) {
        self.flush_log();
        if let Some(wal) = &mut self.wal {
            let compacted = wal.compact(&self.store.snapshot());
            self.note_persist(compacted);
        }
    }

    fn note_persist(&mut self, outcome: std::io::Result<()>) {
        if outcome.is_err() {
            metrics::counter(names::HDNS_PERSIST_ERRORS, &[]).inc();
        }
        self.persist_error = outcome.err();
    }

    /// The error from the most recent persistence step — a log append or
    /// a compaction — or `None` if it succeeded (or nothing has been
    /// persisted yet).
    // Kept, with `last_state_error`: why persistence or a transfer failed.
    pub fn last_persist_error(&self) -> Option<&std::io::Error> {
        self.persist_error.as_ref()
    }

    /// Why the most recent state transfer failed here — a snapshot this
    /// replica could not decode (`rndi_hdns_undecodable_state_total`; it
    /// keeps the store it had and stays in the view, so it may answer
    /// `NameNotFound` for names the group holds) or one it could not send
    /// (`rndi_hdns_state_send_errors_total`) — or `None` if it succeeded.
    pub fn last_state_error(&self) -> Option<&StateError> {
        self.state_error.as_ref()
    }

    /// What start-up recovery did: snapshot entries loaded, log records
    /// replayed, torn-tail bytes discarded, and the error if there was
    /// one (also counted in `rndi_hdns_recovery_errors_total`).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Graceful shutdown: compact and leave the group.
    pub fn shutdown(&mut self) {
        self.persist();
        self.channel.disconnect();
        self.alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupcast::{Cluster, StackConfig};

    fn pair() -> (Cluster, HdnsNode, HdnsNode) {
        let cluster = Cluster::new(11);
        let a = HdnsNode::new(cluster.create_channel(StackConfig::default()), None);
        let b = HdnsNode::new(cluster.create_channel(StackConfig::default()), None);
        a.connect("hdns").unwrap();
        cluster.pump_all();
        b.connect("hdns").unwrap();
        cluster.pump_all();
        (cluster, a, b)
    }

    fn drive(cluster: &Cluster, nodes: &mut [&mut HdnsNode]) {
        for _ in 0..8 {
            cluster.pump_all();
            for n in nodes.iter_mut() {
                n.process();
            }
            if cluster.in_flight() == 0 {
                break;
            }
        }
    }

    #[test]
    fn write_replicates_to_all_nodes() {
        let (cluster, mut a, mut b) = pair();
        drive(&cluster, &mut [&mut a, &mut b]);
        let t = a
            .submit(Op::Bind {
                path: "svc".into(),
                entry: HdnsEntry::leaf(vec![1]),
                overwrite: false,
            })
            .unwrap();
        drive(&cluster, &mut [&mut a, &mut b]);
        assert_eq!(a.outcome(t), OpOutcome::Done(Ok(())));
        assert_eq!(a.lookup("svc").unwrap().value(), vec![1]);
        assert_eq!(
            b.lookup("svc").unwrap().value(),
            vec![1],
            "replica consistent"
        );
    }

    #[test]
    fn atomic_bind_race_one_winner() {
        let (cluster, mut a, mut b) = pair();
        drive(&cluster, &mut [&mut a, &mut b]);
        // Concurrent conflicting binds from both nodes.
        let ta = a
            .submit(Op::Bind {
                path: "k".into(),
                entry: HdnsEntry::leaf(vec![b'a']),
                overwrite: false,
            })
            .unwrap();
        let tb = b
            .submit(Op::Bind {
                path: "k".into(),
                entry: HdnsEntry::leaf(vec![b'b']),
                overwrite: false,
            })
            .unwrap();
        drive(&cluster, &mut [&mut a, &mut b]);
        let ra = a.outcome(ta);
        let rb = b.outcome(tb);
        let oks = [&ra, &rb]
            .iter()
            .filter(|o| matches!(o, OpOutcome::Done(Ok(()))))
            .count();
        assert_eq!(oks, 1, "exactly one bind wins: {ra:?} {rb:?}");
        // Both replicas agree on the value.
        assert_eq!(a.lookup("k"), b.lookup("k"));
    }

    #[test]
    fn join_gets_state_transfer() {
        let (cluster, mut a, mut b) = pair();
        drive(&cluster, &mut [&mut a, &mut b]);
        let t = a
            .submit(Op::Bind {
                path: "existing".into(),
                entry: HdnsEntry::leaf(vec![5]),
                overwrite: false,
            })
            .unwrap();
        drive(&cluster, &mut [&mut a, &mut b]);
        assert!(matches!(a.outcome(t), OpOutcome::Done(Ok(()))));

        let mut c = HdnsNode::new(cluster.create_channel(StackConfig::default()), None);
        c.connect("hdns").unwrap();
        drive(&cluster, &mut [&mut a, &mut b, &mut c]);
        assert_eq!(c.lookup("existing").unwrap().value(), vec![5]);
        assert!(c.take_events().contains(&HdnsEvent::Resynced));
    }

    #[test]
    fn events_emitted_on_ops() {
        let (cluster, mut a, mut b) = pair();
        drive(&cluster, &mut [&mut a, &mut b]);
        b.take_events(); // drop the join-time Resynced
        a.submit(Op::Bind {
            path: "e".into(),
            entry: HdnsEntry::leaf(vec![]),
            overwrite: false,
        })
        .unwrap();
        a.submit(Op::Bind {
            path: "e".into(),
            entry: HdnsEntry::leaf(vec![1]),
            overwrite: true,
        })
        .unwrap();
        a.submit(Op::Unbind { path: "e".into() }).unwrap();
        // Applies (unbind is idempotent) but removes nothing: no event.
        let never_bound = a.submit(Op::Unbind { path: "e".into() }).unwrap();
        drive(&cluster, &mut [&mut a, &mut b]);
        assert_eq!(a.outcome(never_bound), OpOutcome::Done(Ok(())));
        let evs = b.take_events();
        assert_eq!(
            evs,
            vec![
                HdnsEvent::Bound { path: "e".into() },
                HdnsEvent::Changed { path: "e".into() },
                HdnsEvent::Removed { path: "e".into() },
            ]
        );
    }

    /// A single replica on its own cluster, joined and settled.
    fn solo(seed: u64, data_path: &std::path::Path) -> (Cluster, HdnsNode) {
        let cluster = Cluster::new(seed);
        let mut node = HdnsNode::new(
            cluster.create_channel(StackConfig::default()),
            Some(data_path.to_path_buf()),
        );
        node.connect("g").unwrap();
        drive(&cluster, &mut [&mut node]);
        (cluster, node)
    }

    fn bind(cluster: &Cluster, node: &mut HdnsNode, path: &str, value: u8) {
        let t = node
            .submit(Op::Bind {
                path: path.into(),
                entry: HdnsEntry::leaf(vec![value]),
                overwrite: true,
            })
            .unwrap();
        drive(cluster, &mut [&mut *node]);
        assert!(matches!(node.outcome(t), OpOutcome::Done(Ok(()))));
    }

    /// `<data_path><suffix>`: the files a replica keeps beside its snapshot.
    fn beside(data_path: &std::path::Path, suffix: &str) -> std::path::PathBuf {
        let mut name = data_path.as_os_str().to_owned();
        name.push(suffix);
        name.into()
    }

    fn wal_path(data_path: &std::path::Path) -> std::path::PathBuf {
        beside(data_path, ".wal")
    }

    #[test]
    fn disk_persistence_roundtrip() {
        let dir = crate::TestDir::new("roundtrip");
        let path = dir.0.join("snap.json");
        let (cluster, mut a) = solo(3, &path);
        bind(&cluster, &mut a, "durable", 9);
        a.shutdown();
        assert_eq!(std::fs::read(wal_path(&path)).unwrap(), b"", "compacted");

        // A fresh incarnation recovers from disk.
        let (_cluster2, b) = solo(4, &path);
        assert_eq!(b.lookup("durable").unwrap().value(), vec![9]);
        assert_eq!(b.recovery().snapshot_entries, 1);
        assert_eq!(b.recovery().replayed, 0);
        assert!(b.recovery().error.is_none());
    }

    #[test]
    fn unclean_stop_recovers_every_delivered_op_from_the_log() {
        let dir = crate::TestDir::new("unclean");
        let path = dir.0.join("snap.json");
        let (cluster, mut a) = solo(3, &path);
        for i in 0..5u8 {
            bind(&cluster, &mut a, &format!("k{i}"), i);
        }
        let expected = a.store_snapshot();
        drop(a); // no shutdown(), no compaction

        let (_cluster2, b) = solo(4, &path);
        assert_eq!(b.store_snapshot(), expected);
        assert_eq!(b.recovery().snapshot_entries, 0);
        assert_eq!(b.recovery().replayed, 5);
        assert_eq!(b.recovery().discarded_bytes, 0);
    }

    #[test]
    fn garbage_log_tail_is_cut_off_and_reported() {
        let dir = crate::TestDir::new("torn");
        let path = dir.0.join("snap.json");
        let (cluster, mut a) = solo(3, &path);
        bind(&cluster, &mut a, "kept", 1);
        let expected = a.store_snapshot();
        drop(a);
        let whole = std::fs::read(wal_path(&path)).unwrap();
        let mut torn = whole.clone();
        torn.extend_from_slice(&whole[..whole.len() - 3]); // a record missing its end
        std::fs::write(wal_path(&path), &torn).unwrap();

        let (cluster2, mut b) = solo(4, &path);
        assert_eq!(b.store_snapshot(), expected);
        assert_eq!(b.recovery().replayed, 1);
        assert_eq!(b.recovery().discarded_bytes, whole.len() as u64 - 3);
        assert!(b.recovery().error.is_none(), "a torn tail is not an error");
        assert_eq!(std::fs::read(wal_path(&path)).unwrap(), whole);

        // The log is appendable again right behind the last good record.
        bind(&cluster2, &mut b, "after", 2);
        let expected = b.store_snapshot();
        drop(b);
        let (_cluster3, c) = solo(5, &path);
        assert_eq!(c.store_snapshot(), expected);
        assert_eq!(c.recovery().replayed, 2);
    }

    #[test]
    fn garbage_snapshot_is_moved_aside_not_overwritten() {
        let dir = crate::TestDir::new("garbage");
        let path = dir.0.join("snap.json");
        std::fs::create_dir_all(&dir.0).unwrap();
        std::fs::write(&path, b"{ not a store").unwrap();
        std::fs::write(wal_path(&path), b"its log").unwrap();
        let errors = || rndi_obs::metrics::counter(names::HDNS_RECOVERY_ERRORS, &[]).get();
        let before = errors();

        let (cluster, mut a) = solo(3, &path);
        assert_eq!(a.entry_count(), 0, "starts empty");
        let error = a.recovery().error.as_ref().expect("recovery says why");
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        assert!(errors() > before);
        assert!(a.last_persist_error().is_none());

        // Persisting again leaves the evidence where recovery put it.
        bind(&cluster, &mut a, "fresh", 1);
        a.shutdown();
        let aside = |suffix: &str| std::fs::read(beside(&path, suffix)).unwrap();
        assert_eq!(aside(".corrupt"), b"{ not a store");
        assert_eq!(aside(".wal.corrupt"), b"its log");
        let (_cluster2, b) = solo(4, &path);
        assert_eq!(b.lookup("fresh").unwrap().value(), vec![1]);
        assert!(b.recovery().error.is_none());
    }

    #[test]
    fn persist_failure_is_counted_and_readable() {
        // A regular file where the snapshot's parent directory should be.
        let dir = crate::TestDir::new("blocker");
        std::fs::create_dir_all(&dir.0).unwrap();
        let blocker = dir.0.join("file");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let (cluster, mut node) = solo(5, &blocker.join("sub").join("snap.json"));
        assert!(node.last_persist_error().is_none());
        let errors = || rndi_obs::metrics::counter(names::HDNS_PERSIST_ERRORS, &[]).get();
        let before = errors();
        node.persist();
        assert!(errors() > before, "failed compaction is counted");
        assert!(node.last_persist_error().is_some());

        // So is a failed append — and the replica keeps serving.
        let before = errors();
        bind(&cluster, &mut node, "in-memory", 1);
        assert!(errors() > before, "failed append is counted");
        node.process(); // nothing delivered, nothing persisted: not a success
        assert!(node.last_persist_error().is_some());
        assert_eq!(node.lookup("in-memory").unwrap().value(), vec![1]);
    }

    fn undecodable() -> u64 {
        undecodable_proposals().get()
    }

    #[test]
    fn undecodable_delivery_is_counted_and_leaves_replicas_identical() {
        let (cluster, mut a, mut b) = pair();
        // A third member that speaks some other version.
        let stranger = cluster.create_channel(StackConfig::default());
        stranger.connect("hdns").unwrap();
        drive(&cluster, &mut [&mut a, &mut b]);
        bind(&cluster, &mut a, "before", 1);
        b.process();

        let before = undecodable();
        for garbage in [&b"\x02 a later version"[..], b"", b"{\"op_id\":"] {
            stranger.mcast(garbage.to_vec()).unwrap();
        }
        drive(&cluster, &mut [&mut a, &mut b]);
        assert!(
            undecodable() >= before + 6,
            "three deliveries, two replicas"
        );
        assert_eq!(a.store_snapshot(), b.store_snapshot());
        assert_eq!(a.entry_count(), 1, "nothing was applied");

        // The group still orders and applies what it can read.
        bind(&cluster, &mut a, "after", 2);
        b.process();
        assert_eq!(a.store_snapshot(), b.store_snapshot());
        assert_eq!(b.lookup("after").unwrap().value(), vec![2]);
    }

    /// A channel that damages every proposal on its way out: this
    /// replica's own writes come back undecodable.
    struct Corrupting(GroupChannel);

    impl ReplicaChannel for Corrupting {
        fn addr(&self) -> Addr {
            self.0.addr()
        }
        fn connect(&self, group: &str) -> Result<(), SendError> {
            self.0.connect(group)
        }
        fn disconnect(&self) {
            self.0.disconnect()
        }
        fn mcast(&self, mut bytes: Vec<u8>) -> Result<(), SendError> {
            bytes[0] = 0x7F;
            self.0.mcast(bytes)
        }
        fn poll(&self) -> Vec<ChannelEvent> {
            self.0.poll()
        }
        fn provide_state(&self, to: Addr, bytes: Vec<u8>) -> Result<(), SendError> {
            self.0.provide_state(to, bytes)
        }
    }

    #[test]
    fn own_undecodable_write_is_lost_at_once_not_pending_forever() {
        let cluster = Cluster::new(13);
        let channel = cluster.create_channel(StackConfig::default());
        let mut node = HdnsNode::new(Corrupting(channel), None);
        node.connect("g").unwrap();
        cluster.pump_all();
        node.process();

        let before = undecodable();
        let first = node.submit(Op::Unbind { path: "a".into() }).unwrap();
        let second = node.submit(Op::Unbind { path: "b".into() }).unwrap();
        assert_eq!(node.open_tickets(), 2);
        // One pump, one process: what a single `drive()` round does.
        cluster.pump_all();
        node.process();
        assert!(undecodable() >= before + 2);
        assert_eq!(node.outcome(first), OpOutcome::Lost);
        assert_eq!(node.outcome(second), OpOutcome::Lost);
        assert_eq!(node.open_tickets(), 0);
        assert_eq!(node.store.ops_applied, 0, "neither applied nor numbered");
    }

    #[test]
    fn undecodable_state_is_counted_and_leaves_the_store_as_it_was() {
        // A coordinator nobody polls: the joiner gets only what we send.
        let cluster = Cluster::new(17);
        let donor = cluster.create_channel(StackConfig::default());
        donor.connect("g").unwrap();
        let mut fresh = HdnsNode::new(cluster.create_channel(StackConfig::default()), None);
        fresh.connect("g").unwrap();
        let hand = |bytes: Vec<u8>, fresh: &mut HdnsNode| {
            donor.provide_state(fresh.addr(), bytes).unwrap();
            cluster.pump_all();
            fresh.process();
        };

        let before = undecodable_state().get();
        hand(b"{ not a store".to_vec(), &mut fresh);
        assert!(undecodable_state().get() > before);
        assert_eq!(fresh.entry_count(), 0);
        assert!(!fresh.take_events().contains(&HdnsEvent::Resynced));
        assert!(matches!(
            fresh.last_state_error(),
            Some(StateError::Undecodable(_))
        ));

        let mut good = HdnsStore::new();
        good.apply(&Op::CreateContext { path: "c".into() }).unwrap();
        hand(good.snapshot(), &mut fresh);
        assert_eq!(fresh.entry_count(), 1);
        assert!(fresh.take_events().contains(&HdnsEvent::Resynced));
        assert!(fresh.last_state_error().is_none());

        // A donor running a version that sent its state as JSON is refused
        // the same way, and the store it would have replaced stays.
        let before = undecodable_state().get();
        let kept = fresh.store_snapshot();
        hand(br#"{"entries":{},"ops_applied":0}"#.to_vec(), &mut fresh);
        assert!(undecodable_state().get() > before);
        assert_eq!(fresh.store_snapshot(), kept);
        assert!(!fresh.take_events().contains(&HdnsEvent::Resynced));
        assert!(matches!(
            fresh.last_state_error(),
            Some(StateError::Undecodable(_))
        ));
    }

    #[test]
    fn an_abandoned_ticket_is_not_resurrected_by_its_delivery() {
        let (cluster, mut a, mut b) = pair();
        drive(&cluster, &mut [&mut a, &mut b]);
        let ticket = a.submit(Op::CreateContext { path: "c".into() }).unwrap();
        a.abandon(ticket);
        drive(&cluster, &mut [&mut a, &mut b]);
        assert!(a.lookup("c").is_some(), "the write itself still lands");
        assert_eq!(a.open_tickets(), 0);
        assert_eq!(a.outcome(ticket), OpOutcome::Lost);
    }

    #[test]
    fn unknown_ticket_is_lost() {
        let (_cluster, mut a, _b) = pair();
        assert_eq!(a.outcome(Ticket(999)), OpOutcome::Lost);
    }
}
