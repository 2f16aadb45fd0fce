//! A deployment of HDNS replicas with a synchronous client surface.
//!
//! The realm owns the [`groupcast::Cluster`] and the replicas, and runs the
//! drive loop that pumps messages, processes replica events, and — in
//! bimodal stacks — runs gossip/stability rounds until writes resolve.
//! Fault injection (crash, restart, partition, heal) mirrors the paper's
//! recovery scenarios.

use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use rndi_obs::{ServerOp, TraceCtx};

use groupcast::{Addr, Cluster, StackConfig};

use crate::node::{HdnsEvent, HdnsNode};
use crate::replica::{replicate, RealmError, Replica};
use crate::store::{HdnsEntry, Op};

/// A running HDNS deployment.
///
/// ```
/// use groupcast::StackConfig;
/// use hdns::{HdnsEntry, HdnsRealm};
///
/// let realm = HdnsRealm::new("docs", 2, StackConfig::default(), None, 1);
/// realm.bind(0, "svc", HdnsEntry::leaf(b"hello".to_vec())).unwrap();
/// // Reads are replica-local: the other node already has it.
/// assert_eq!(realm.lookup(1, "svc").unwrap().value(), b"hello");
/// ```
#[derive(Clone)]
pub struct HdnsRealm {
    cluster: Cluster,
    group: String,
    config: StackConfig,
    nodes: Arc<Mutex<Vec<Arc<Mutex<HdnsNode>>>>>,
    data_dir: Option<PathBuf>,
    write_instruments: Arc<WriteInstruments>,
}

/// The labels of the write ops a realm counts, in [`WriteInstruments`]
/// slot order.
const WRITE_OPS: [&str; 6] = [
    "bind",
    "rebind",
    "unbind",
    "rename",
    "create_subcontext",
    "modify_attributes",
];

/// A realm's per-op instruments under `server="hdns:<group>"`, each
/// resolved on that op's first write and held from then on.
struct WriteInstruments {
    /// `hdns:<group>`.
    server: Arc<str>,
    by_op: [OnceLock<ServerOp>; WRITE_OPS.len()],
}

impl HdnsRealm {
    /// Deploy `replicas` nodes into group `group`. With a `data_dir`, each
    /// replica keeps its state there: a snapshot `replica-<i>.json` plus an
    /// op log `replica-<i>.json.wal` holding every write delivered since
    /// (see [`crate::wal`] for the layout and the durability contract). A
    /// realm deployed over a directory that already holds such files — from
    /// a clean shutdown, a crash, or the snapshot-only layout of earlier
    /// versions — starts from them.
    pub fn new(
        group: &str,
        replicas: usize,
        config: StackConfig,
        data_dir: Option<PathBuf>,
        seed: u64,
    ) -> HdnsRealm {
        assert!(replicas >= 1, "a realm needs at least one replica");
        let cluster = Cluster::new(seed);
        let realm = HdnsRealm {
            cluster,
            group: group.to_string(),
            config,
            nodes: Arc::new(Mutex::new(Vec::new())),
            data_dir,
            write_instruments: Arc::new(WriteInstruments {
                server: format!("hdns:{group}").into(),
                by_op: Default::default(),
            }),
        };
        for i in 0..replicas {
            realm.spawn_replica(i);
        }
        realm.drive();
        realm
    }

    fn data_path(&self, idx: usize) -> Option<PathBuf> {
        self.data_dir
            .as_ref()
            .map(|d| d.join(format!("replica-{idx}.json")))
    }

    fn spawn_replica(&self, idx: usize) {
        let channel = self.cluster.create_channel(self.config.clone());
        let mut node = HdnsNode::new(channel, self.data_path(idx));
        node.connect(&self.group)
            .expect("a channel the cluster just created is alive");
        let mut nodes = self.nodes.lock();
        if idx < nodes.len() {
            node.succeed(&nodes[idx].lock());
            nodes[idx] = Arc::new(Mutex::new(node));
        } else {
            nodes.push(Arc::new(Mutex::new(node)));
        }
    }

    /// Number of replicas (including dead ones).
    pub fn replica_count(&self) -> usize {
        self.nodes.lock().len()
    }

    /// The group address of replica `i`.
    pub fn addr(&self, i: usize) -> Addr {
        self.nodes.lock()[i].lock().addr()
    }

    /// Whether replica `i` is alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.nodes.lock()[i].lock().is_alive()
    }

    /// The underlying cluster (for advanced fault scripting).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Pump messages and process replica events until quiescent, running
    /// gossip/stability rounds so bimodal stacks repair losses.
    pub fn drive(&self) {
        let nodes: Vec<Arc<Mutex<HdnsNode>>> = self.nodes.lock().clone();
        for round in 0..12 {
            self.cluster.pump_all();
            for n in &nodes {
                n.lock().process();
            }
            if self.cluster.in_flight() == 0 {
                // Anti-entropy: repair bimodal losses, then check whether
                // the repair generated new traffic.
                self.cluster.gossip_round();
                self.cluster.pump_all();
                for n in &nodes {
                    n.lock().process();
                }
                if self.cluster.in_flight() == 0 && round > 0 {
                    break;
                }
            }
        }
        self.cluster.stable_round();
    }

    /// The op's slot in [`WRITE_OPS`].
    fn op_slot(op: &Op) -> usize {
        match op {
            Op::Bind {
                overwrite: false, ..
            } => 0,
            Op::Bind {
                overwrite: true, ..
            } => 1,
            Op::Unbind { .. } => 2,
            Op::Rename { .. } => 3,
            Op::CreateContext { .. } => 4,
            Op::SetAttrs { .. } => 5,
        }
    }

    /// Replicate one write via replica `node`. With a `trace` context the
    /// realm records a "server" span as its child, linking the write into
    /// the caller's trace; the named write methods below are shorthands
    /// for the common ops with no context.
    fn write_traced(
        &self,
        node: usize,
        op: Op,
        trace: Option<&TraceCtx>,
    ) -> Result<(), RealmError> {
        let slot = Self::op_slot(&op);
        let start = Instant::now();
        let result = self.write_inner(node, op);
        let obs = &self.write_instruments;
        obs.by_op[slot]
            .get_or_init(|| ServerOp::new(obs.server.clone(), WRITE_OPS[slot]))
            .observe(start.elapsed(), result.is_ok(), trace);
        result
    }

    fn write_inner(&self, node: usize, op: Op) -> Result<(), RealmError> {
        let handle = self.nodes.lock()[node].clone();
        // One drive resolves a write; gossip gets a few more chances to
        // repair a lost one before it is given up.
        let mut drives_left = 5;
        replicate(&handle, op, || {
            self.drive();
            drives_left -= 1;
            drives_left > 0
        })
    }

    /// Atomic bind via replica `node`.
    pub fn bind(&self, node: usize, path: &str, entry: HdnsEntry) -> Result<(), RealmError> {
        self.write_traced(
            node,
            Op::Bind {
                path: path.to_string(),
                entry,
                overwrite: false,
            },
            None,
        )
    }

    /// Rebind (overwrite) via replica `node`.
    pub fn rebind(&self, node: usize, path: &str, entry: HdnsEntry) -> Result<(), RealmError> {
        self.write_traced(
            node,
            Op::Bind {
                path: path.to_string(),
                entry,
                overwrite: true,
            },
            None,
        )
    }

    pub fn unbind(&self, node: usize, path: &str) -> Result<(), RealmError> {
        self.write_traced(
            node,
            Op::Unbind {
                path: path.to_string(),
            },
            None,
        )
    }

    pub fn create_context(&self, node: usize, path: &str) -> Result<(), RealmError> {
        self.write_traced(
            node,
            Op::CreateContext {
                path: path.to_string(),
            },
            None,
        )
    }

    /// Replica-local read on `node`.
    pub fn lookup(&self, node: usize, path: &str) -> Option<HdnsEntry> {
        self.nodes.lock()[node].lock().lookup(path)
    }

    /// Replica-local listing on `node`.
    pub fn list(&self, node: usize, prefix: &str) -> Vec<(String, HdnsEntry)> {
        self.nodes.lock()[node].lock().list(prefix)
    }

    /// Drain replica `node`'s change events.
    pub fn take_events(&self, node: usize) -> Vec<HdnsEvent> {
        self.nodes.lock()[node].lock().take_events()
    }

    /// Serialized store of replica `node` (convergence checks / backups).
    pub fn store_snapshot(&self, node: usize) -> Vec<u8> {
        self.nodes.lock()[node].lock().store_snapshot()
    }

    /// Deploy an additional replica into the running group (§6: "Additional
    /// nodes can be deployed dynamically at a later stage as well, while
    /// the system is already in operation"). The newcomer is brought
    /// current by state transfer; returns its replica index.
    pub fn add_replica(&self) -> usize {
        let idx = self.nodes.lock().len();
        self.spawn_replica(idx);
        self.cluster.detect_failures();
        self.drive();
        idx
    }

    // ---------------------------------------------------------------
    // Fault injection
    // ---------------------------------------------------------------

    /// Hard-crash replica `i` (no compaction — disk has the last snapshot
    /// and the op log of everything delivered since).
    pub fn crash(&self, i: usize) {
        let addr = self.addr(i);
        self.cluster.crash(addr);
        self.cluster.detect_failures();
        let nodes: Vec<Arc<Mutex<HdnsNode>>> = self.nodes.lock().clone();
        for n in &nodes {
            n.lock().process();
        }
        self.drive();
    }

    /// Restart a crashed replica: a fresh incarnation recovers its
    /// snapshot and op log, rejoins, and is brought current by state
    /// transfer.
    pub fn restart(&self, i: usize) {
        self.spawn_replica(i);
        self.cluster.detect_failures();
        self.drive();
    }

    /// Gracefully stop replica `i` (compacts to disk first).
    pub fn shutdown_replica(&self, i: usize) {
        let handle = self.nodes.lock()[i].clone();
        handle.lock().shutdown();
        self.cluster.detect_failures();
        self.drive();
    }

    /// Partition the realm: each listed side is a set of replica indices.
    pub fn partition(&self, sides: &[&[usize]]) {
        let addr_sides: Vec<Vec<Addr>> = sides
            .iter()
            .map(|side| side.iter().map(|i| self.addr(*i)).collect())
            .collect();
        let refs: Vec<&[Addr]> = addr_sides.iter().map(|v| v.as_slice()).collect();
        self.cluster.partition(&refs);
        self.cluster.detect_failures();
        self.drive();
    }

    /// Heal all partitions; PRIMARY_PARTITION reconciles state.
    pub fn heal(&self) {
        self.cluster.heal();
        self.cluster.detect_failures();
        self.drive();
    }
}

/// Replica `.1` of realm `.0`. The node is looked up on every call, so a
/// [`HdnsRealm::restart`] is seen by every holder of the pair.
impl Replica for (HdnsRealm, usize) {
    fn lookup(&self, path: &str) -> Option<HdnsEntry> {
        self.0.lookup(self.1, path)
    }
    fn list(&self, prefix: &str) -> Vec<(String, HdnsEntry)> {
        self.0.list(self.1, prefix)
    }
    fn write(&self, op: Op, trace: Option<&TraceCtx>) -> Result<(), RealmError> {
        self.0.write_traced(self.1, op, trace)
    }
    fn take_events(&self) -> Vec<HdnsEvent> {
        self.0.take_events(self.1)
    }
    fn generation(&self) -> Arc<AtomicU64> {
        self.0.nodes.lock()[self.1].lock().generation().clone()
    }
    fn pump(&self) {
        self.0.drive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::HdnsError;
    use groupcast::OrderingMode;

    fn realm(n: usize) -> HdnsRealm {
        HdnsRealm::new("test", n, StackConfig::default(), None, 5)
    }

    #[test]
    fn reads_from_any_replica() {
        let r = realm(3);
        r.bind(0, "svc", HdnsEntry::leaf(vec![1])).unwrap();
        for i in 0..3 {
            assert_eq!(r.lookup(i, "svc").unwrap().value(), vec![1], "replica {i}");
        }
    }

    #[test]
    fn foreign_value_that_looks_like_a_trace_header_is_stored_verbatim() {
        let r = realm(3);
        let foreign = b"%RNDI-TRACE:1-2-0-0\nabc".to_vec();
        r.bind(0, "x", HdnsEntry::leaf(foreign.clone())).unwrap();
        for i in 0..3 {
            assert_eq!(r.lookup(i, "x").unwrap().value(), foreign, "replica {i}");
        }
    }

    #[test]
    fn atomic_bind_conflict_detected() {
        let r = realm(2);
        r.bind(0, "k", HdnsEntry::leaf(vec![1])).unwrap();
        assert_eq!(
            r.bind(1, "k", HdnsEntry::leaf(vec![2])),
            Err(RealmError::Store(HdnsError::AlreadyBound("k".into())))
        );
        r.rebind(1, "k", HdnsEntry::leaf(vec![2])).unwrap();
        assert_eq!(r.lookup(0, "k").unwrap().value(), vec![2]);
    }

    #[test]
    fn crash_and_restart_recovers_via_state_transfer() {
        let r = realm(3);
        r.bind(0, "before", HdnsEntry::leaf(vec![1])).unwrap();
        r.crash(2);
        assert!(!r.is_alive(2));
        // Writes continue on the surviving majority.
        r.bind(0, "during", HdnsEntry::leaf(vec![2])).unwrap();
        r.restart(2);
        assert!(r.is_alive(2));
        assert_eq!(r.lookup(2, "before").unwrap().value(), vec![1]);
        assert_eq!(r.lookup(2, "during").unwrap().value(), vec![2]);
    }

    #[test]
    fn partition_then_primary_partition_resync() {
        let r = realm(3);
        r.bind(0, "base", HdnsEntry::leaf(vec![0])).unwrap();
        // Isolate replica 2; both sides keep serving.
        r.partition(&[&[0, 1], &[2]]);
        r.bind(0, "majority-write", HdnsEntry::leaf(vec![1]))
            .unwrap();
        // The minority side also accepts a (divergent) write.
        r.bind(2, "minority-write", HdnsEntry::leaf(vec![9]))
            .unwrap();
        assert!(r.lookup(0, "minority-write").is_none());

        r.heal();
        // PRIMARY_PARTITION: side {0,1} held the old coordinator → wins;
        // replica 2 resyncs and loses its divergent write.
        for i in 0..3 {
            assert!(
                r.lookup(i, "majority-write").is_some(),
                "replica {i} has the winning state"
            );
            assert!(
                r.lookup(i, "minority-write").is_none(),
                "replica {i} dropped the losing write"
            );
        }
        assert!(r.take_events(2).contains(&HdnsEvent::Resynced));
    }

    #[test]
    fn bimodal_stack_converges_despite_loss() {
        let r = HdnsRealm::new(
            "bimodal",
            3,
            StackConfig {
                ordering: OrderingMode::Bimodal {
                    loss: 0.3,
                    fanout: 2,
                },
            },
            None,
            42,
        );
        for i in 0..10u8 {
            r.rebind(0, &format!("k{i}"), HdnsEntry::leaf(vec![i]))
                .unwrap();
        }
        for node in 0..3 {
            for i in 0..10u8 {
                assert_eq!(
                    r.lookup(node, &format!("k{i}")).map(|e| e.value().to_vec()),
                    Some(vec![i]),
                    "node {node} key k{i}"
                );
            }
        }
    }

    #[test]
    fn graceful_shutdown_persists_and_cold_restart_recovers() {
        let dir = crate::TestDir::new("realm");
        {
            let r = HdnsRealm::new("p", 1, StackConfig::default(), Some(dir.0.clone()), 1);
            r.bind(0, "durable", HdnsEntry::leaf(vec![7])).unwrap();
            r.shutdown_replica(0);
        }
        // A brand-new realm over the same data dir: complete-shutdown
        // recovery from disk.
        let r2 = HdnsRealm::new("p", 1, StackConfig::default(), Some(dir.0.clone()), 2);
        assert_eq!(r2.lookup(0, "durable").unwrap().value(), vec![7]);
    }

    #[test]
    fn dynamic_replica_deployment() {
        let r = realm(2);
        r.bind(0, "pre-existing", HdnsEntry::leaf(vec![1])).unwrap();
        // Scale out while in operation.
        let idx = r.add_replica();
        assert_eq!(idx, 2);
        assert_eq!(r.replica_count(), 3);
        assert_eq!(
            r.lookup(idx, "pre-existing").unwrap().value(),
            vec![1],
            "newcomer received state transfer"
        );
        // The newcomer is a full citizen: it can accept writes.
        r.bind(idx, "from-newcomer", HdnsEntry::leaf(vec![2]))
            .unwrap();
        assert_eq!(r.lookup(0, "from-newcomer").unwrap().value(), vec![2]);
    }

    #[test]
    fn a_write_that_is_given_up_leaves_no_ticket_behind() {
        let r = realm(2);
        r.bind(0, "base", HdnsEntry::leaf(vec![0])).unwrap();
        let open_tickets = |i: usize| r.nodes.lock()[i].lock().open_tickets();

        // Cut replica 1 off before any failure detector has run: it still
        // forwards to coordinator 0, the network drops it, and the write
        // stays pending until the realm gives up on it.
        r.cluster().partition(&[&[r.addr(1)]]);
        for i in 0..1_000u32 {
            assert_eq!(
                r.rebind(1, "k", HdnsEntry::leaf(i.to_le_bytes().to_vec())),
                Err(RealmError::TimedOut)
            );
        }
        assert_eq!(open_tickets(1), 0);

        // A crashed replica refuses at submit and holds nothing either.
        r.heal();
        r.crash(1);
        for _ in 0..1_000 {
            assert_eq!(
                r.rebind(1, "k", HdnsEntry::leaf(vec![1])),
                Err(RealmError::NodeUnavailable)
            );
        }
        assert_eq!(open_tickets(1), 0);
        assert_eq!(open_tickets(0), 0);
    }

    #[test]
    fn listing_and_contexts() {
        let r = realm(2);
        r.create_context(0, "dept").unwrap();
        r.bind(0, "dept/a", HdnsEntry::leaf(vec![1])).unwrap();
        r.bind(1, "dept/b", HdnsEntry::leaf(vec![2])).unwrap();
        let mut names: Vec<String> = r.list(1, "dept").into_iter().map(|(n, _)| n).collect();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
    }
}
