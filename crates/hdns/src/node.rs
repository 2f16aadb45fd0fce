//! One HDNS replica.

use std::collections::HashMap;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use groupcast::{Addr, ChannelEvent, GroupChannel, SendError, View};
use rndi_obs::metrics::names;

use crate::store::{HdnsEntry, HdnsError, HdnsStore, Op};

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
    /// The replica died before the op resolved.
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

/// A proposal multicast to the group.
#[derive(Serialize, Deserialize)]
struct Proposal {
    op_id: u64,
    op: Op,
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
    data_path: Option<PathBuf>,
    /// Snapshot to disk every N applied ops (paper: "synchronized in fixed
    /// time intervals and upon process exit").
    snapshot_every: u64,
    ops_since_snapshot: u64,
    /// Why the most recent [`HdnsNode::persist`] failed, if it did.
    persist_error: Option<std::io::Error>,
    alive: bool,
}

impl<C: ReplicaChannel> HdnsNode<C> {
    /// Create a replica on `channel`. When `data_path` exists on disk, the
    /// store is recovered from the snapshot (cold-start recovery: "the
    /// service can thus recover the state after a complete
    /// shutdown/restart").
    pub fn new(channel: C, data_path: Option<PathBuf>) -> HdnsNode<C> {
        let store = data_path
            .as_ref()
            .and_then(|p| std::fs::read(p).ok())
            .and_then(|bytes| HdnsStore::restore(&bytes).ok())
            .unwrap_or_default();
        HdnsNode {
            channel,
            store,
            view: None,
            next_op: 0,
            tickets: HashMap::new(),
            events: Vec::new(),
            data_path,
            snapshot_every: 64,
            ops_since_snapshot: 0,
            persist_error: None,
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

    /// The currently installed membership view.
    pub fn view(&self) -> Option<&View> {
        self.view.as_ref()
    }

    /// Replica-local read: any node serves lookups without communication
    /// ("read requests can be handled entirely by any of the nodes").
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
        let proposal = Proposal { op_id, op };
        let bytes = serde_json::to_vec(&proposal).expect("ops serialize");
        self.channel.mcast(bytes)?;
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

    /// Drain accumulated change events.
    pub fn take_events(&mut self) -> Vec<HdnsEvent> {
        std::mem::take(&mut self.events)
    }

    /// Process pending channel events: apply delivered ops, answer state
    /// requests, install state. Call after each cluster pump.
    pub fn process(&mut self) {
        for ev in self.channel.poll() {
            match ev {
                ChannelEvent::Message { from, bytes } => {
                    let Ok(p) = serde_json::from_slice::<Proposal>(&bytes) else {
                        continue;
                    };
                    let existed = match &p.op {
                        Op::Bind { path, .. } => self.store.get(path).is_some(),
                        _ => false,
                    };
                    let result = self.store.apply(&p.op);
                    if result.is_ok() {
                        self.emit(&p.op, existed);
                        self.ops_since_snapshot += 1;
                        if self.ops_since_snapshot >= self.snapshot_every {
                            self.persist();
                        }
                    }
                    if from == self.channel.addr() {
                        self.tickets.insert(p.op_id, OpOutcome::Done(result));
                    }
                }
                ChannelEvent::View(v) => {
                    self.view = Some(v);
                }
                ChannelEvent::StateRequest { joiner } => {
                    let _ = self.channel.provide_state(joiner, self.store.snapshot());
                }
                ChannelEvent::SetState { bytes } => {
                    if let Ok(store) = HdnsStore::restore(&bytes) {
                        self.store = store;
                        self.events.push(HdnsEvent::Resynced);
                        self.persist();
                    }
                }
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
    }

    fn emit(&mut self, op: &Op, existed: bool) {
        let ev = match op {
            Op::Bind { path, .. } if existed => HdnsEvent::Changed { path: path.clone() },
            Op::Bind { path, .. } => HdnsEvent::Bound { path: path.clone() },
            Op::CreateContext { path } => HdnsEvent::Bound { path: path.clone() },
            Op::Unbind { path } => HdnsEvent::Removed { path: path.clone() },
            Op::Rename { from, to } => HdnsEvent::Renamed {
                from: from.clone(),
                to: to.clone(),
            },
            Op::SetAttrs { path, .. } => HdnsEvent::Changed { path: path.clone() },
        };
        self.events.push(ev);
    }

    /// Write the snapshot to disk (periodic, and "upon process exit" via
    /// [`HdnsNode::shutdown`]). A failure is counted in
    /// `rndi_hdns_persist_errors_total` and kept for
    /// [`HdnsNode::last_persist_error`]; the replica keeps serving from
    /// memory.
    pub fn persist(&mut self) {
        self.ops_since_snapshot = 0;
        let Some(p) = &self.data_path else {
            return;
        };
        let written = p
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(p, self.store.snapshot()));
        if written.is_err() {
            rndi_obs::metrics::counter(names::HDNS_PERSIST_ERRORS, &[]).inc();
        }
        self.persist_error = written.err();
    }

    /// The error from the most recent [`HdnsNode::persist`], or `None` if
    /// it succeeded (or nothing has been persisted yet).
    pub fn last_persist_error(&self) -> Option<&std::io::Error> {
        self.persist_error.as_ref()
    }

    /// Graceful shutdown: persist and leave the group.
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
        assert_eq!(a.lookup("svc").unwrap().value, vec![1]);
        assert_eq!(
            b.lookup("svc").unwrap().value,
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
        assert_eq!(c.lookup("existing").unwrap().value, vec![5]);
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
        drive(&cluster, &mut [&mut a, &mut b]);
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

    #[test]
    fn disk_persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hdns-test-{}", std::process::id()));
        let path = dir.join("snap.json");
        let _ = std::fs::remove_file(&path);

        let cluster = Cluster::new(3);
        let mut a = HdnsNode::new(
            cluster.create_channel(StackConfig::default()),
            Some(path.clone()),
        );
        a.connect("g").unwrap();
        cluster.pump_all();
        a.process();
        let t = a
            .submit(Op::Bind {
                path: "durable".into(),
                entry: HdnsEntry::leaf(vec![9]),
                overwrite: false,
            })
            .unwrap();
        cluster.pump_all();
        a.process();
        assert!(matches!(a.outcome(t), OpOutcome::Done(Ok(()))));
        a.shutdown();

        // A fresh incarnation recovers from disk.
        let cluster2 = Cluster::new(4);
        let b = HdnsNode::new(
            cluster2.create_channel(StackConfig::default()),
            Some(path.clone()),
        );
        assert_eq!(b.lookup("durable").unwrap().value, vec![9]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persist_failure_is_counted_and_readable() {
        // A regular file where the snapshot's parent directory should be.
        let blocker =
            std::env::temp_dir().join(format!("hdns-persist-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let cluster = Cluster::new(5);
        let mut node = HdnsNode::new(
            cluster.create_channel(StackConfig::default()),
            Some(blocker.join("sub").join("snap.json")),
        );
        assert!(node.last_persist_error().is_none());
        let errors = || rndi_obs::metrics::counter(names::HDNS_PERSIST_ERRORS, &[]).get();
        let before = errors();
        node.persist();
        assert!(errors() > before, "failed snapshot write is counted");
        assert!(node.last_persist_error().is_some());
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn unknown_ticket_is_lost() {
        let (_cluster, mut a, _b) = pair();
        assert_eq!(a.outcome(Ticket(999)), OpOutcome::Lost);
    }
}
