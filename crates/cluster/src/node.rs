//! [`ClusterNode`]: one member of the TCP membership plane.
//!
//! Each node hosts a [`NetServer`] whose v2 envelope protocol carries
//! three planes over the *same* listener: naming calls (the standard
//! [`HdnsProviderContext`] pipeline over the local HDNS replica, as every
//! other HDNS endpoint serves), admin telemetry (scrapes see membership
//! through `Admin::Health`), and the `Gossip` family — membership Syncs
//! plus `Group`-wrapped [`groupcast::Wire`] frames that carry the
//! replication protocol (sequencer forwards, ordered deliveries, view
//! installs, state snapshots) peer-to-peer.
//!
//! Concurrency model: all protocol state lives in one [`NodeState`] behind
//! a mutex, every step of it takes the time as an argument, and **no TCP
//! I/O ever happens while it is held**. The server's gossip handler runs
//! inline on a shard event loop, so it only mutates state and appends wire
//! frames to an *outbox*; a per-node pacer thread asks the state for each
//! round's plan, does the plan's I/O, hands the replies back, pumps the
//! HDNS replica, and exports telemetry. Handler and pacer are the only
//! code that knows sockets or clocks: the crate's seeded simulation
//! (`tests/sim/mod.rs`) runs the same state with frames handed over in memory.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use groupcast::{Addr, MemberCore, OrderingMode, Outgoing, SendError, Wire};
use hdns::replica::replicate;
use hdns::{HdnsEntry, HdnsEvent, HdnsNode, Op, RealmError, Replica, ReplicaChannel};
use rndi_core::error::{NamingError, Result};
use rndi_net::proto::{GossipReply, GossipRequest, MemberEntry, MemberState, ViewSummary};
use rndi_net::{GossipHandler, MembershipStats, NetClient, NetServer, ServerConfig};
use rndi_obs::metrics::{names, Counter, Registry};
use rndi_obs::TraceCtx;
use rndi_providers::hdns::HdnsProviderContext;

use crate::bridge::{self, addr_of};
use crate::config::ClusterConfig;
use crate::gossip::GossipEngine;
use crate::membership::MembershipTable;

/// How long an in-process [`ClusterNode::write_sync`] waits for its
/// ordered self-delivery.
const WRITE_BUDGET: Duration = Duration::from_millis(3_000);

/// How long a *served* write waits. Backend calls run inline on a server
/// shard's event loop: gossip has a shard of its own, but every other
/// client of that loop waits with the write, so a stalled one must
/// surface as a retryable error soon.
pub const BACKEND_WRITE_BUDGET: Duration = Duration::from_millis(250);

/// All protocol state of one node. See the module doc for the locking
/// rule: mutate freely, never touch a socket while holding this.
pub struct NodeState {
    engine: GossipEngine,
    core: MemberCore,
    group: String,
    connected: bool,
    /// Reverse of [`bridge::addr_of`] over every name in the table.
    names_by_addr: BTreeMap<Addr, String>,
    /// Group wires awaiting the pacer's flush, per target endpoint.
    outbox: Vec<(String, GossipRequest)>,
    /// Seed endpoint still being courted (dropped once it appears in the
    /// membership table).
    seed: Option<String>,
    /// `rndi_cluster_undecodable_frames_total` in the node's registry.
    undecodable_frames: Arc<Counter>,
}

/// One gossip round's outbound work, computed under the lock, executed
/// off it (public for the crate's simulation tests).
#[doc(hidden)]
pub struct RoundPlan {
    pub sync: GossipRequest,
    /// `(peer name if known, endpoint)` to Sync with.
    pub targets: Vec<(Option<String>, String)>,
    /// `(endpoint, Group frame)` to deliver.
    pub wires: Vec<(String, GossipRequest)>,
}

impl NodeState {
    fn name_of(&self, addr: Addr) -> Option<&str> {
        self.names_by_addr.get(&addr).map(String::as_str)
    }

    /// Index the names a merge added to the table (none ever leaves it).
    fn index_names(&mut self) {
        if self.names_by_addr.len() != self.engine.table.known_count() {
            let entries = self.engine.table.entries().into_iter();
            self.names_by_addr = entries.map(|e| (addr_of(&e.name), e.name)).collect();
        }
    }

    fn endpoint_of(&self, name: &str) -> Option<String> {
        self.engine
            .table
            .get(name)
            .map(|m| m.endpoint.clone())
            .filter(|ep| !ep.is_empty())
    }

    /// Route protocol sends: self-targeted wires loop straight back into
    /// the core (worklist, not recursion — a Forward to myself yields the
    /// Ordered fan-out in the same pass); peer wires go to the outbox.
    fn deliver(&mut self, outgoing: Vec<Outgoing>) {
        let me = self.core.me();
        let mut work: Vec<Outgoing> = outgoing;
        while let Some(out) = work.pop() {
            if out.to == me {
                work.extend(self.core.on_wire(me, out.wire));
                continue;
            }
            if let Some(name) = self.name_of(out.to).map(str::to_string) {
                self.queue(&name, &out.wire);
            }
        }
    }

    /// Put `wire` in the outbox for member `name`, unless it has no known
    /// endpoint.
    fn queue(&mut self, name: &str, wire: &Wire) {
        let Some(ep) = self.endpoint_of(name) else {
            return;
        };
        let frame = GossipRequest::Group {
            group: self.group.clone(),
            from: self.core.me().0,
            wire: wire.encode(),
        };
        self.outbox.push((ep, frame));
    }

    /// This node's current belief about every member.
    pub fn members(&self) -> Vec<MemberEntry> {
        self.engine.table.entries()
    }

    /// Strict-majority write gate: the installed view must contain a
    /// strict majority of *all known* member names still believed Alive.
    /// A minority partition fails this and refuses writes, which is what
    /// makes "no acknowledged write lost" hold across heals.
    pub fn writes_allowed(&self) -> bool {
        let Some(view) = self.core.view() else {
            return false;
        };
        // A node whose installed view trails the lineage it has *heard* is
        // healing from a partition: the gossip piggyback taught it the
        // higher-seq view no later than that its peers were back, so this
        // closes the window where a stale full view passes the count again.
        let healing = |best: &ViewSummary| best.seq > view.id.seq;
        let named = view.members.iter().filter_map(|a| self.name_of(*a));
        !self.engine.best_view().is_some_and(healing) && bridge::quorum_holds(&self.engine, named)
    }

    /// The installed view rendered in names (for gossip and telemetry).
    pub fn view(&self) -> Option<ViewSummary> {
        let view = self.core.view()?;
        let members = view
            .members
            .iter()
            .map(|a| {
                self.name_of(*a)
                    .map_or_else(|| format!("?{}", a.0), str::to_string)
            })
            .collect();
        Some(ViewSummary {
            seq: view.id.seq,
            members,
        })
    }

    /// The state half of one pacer round at `now_ms`: accrue suspicion,
    /// drive the view lineage, choose who to Sync with (courting the seed
    /// until it shows up in the table) and hand over the outbox.
    pub fn plan_round(&mut self, now_ms: u64) -> RoundPlan {
        self.engine.tick(now_ms);
        self.maintain_views();
        let mut targets: Vec<(Option<String>, String)> = self
            .engine
            .gossip_targets()
            .into_iter()
            .map(|(n, ep)| (Some(n), ep))
            .collect();
        if let Some(seed) = self.seed.clone() {
            let known = targets.iter().any(|(_, ep)| *ep == seed);
            if known || self.engine.table.known_count() > 1 {
                self.seed = None; // absorbed; normal gossip takes over
            } else {
                targets.push((None, seed));
            }
        }
        let my_endpoint = &self.engine.table.me().endpoint;
        targets.retain(|(_, ep)| !ep.is_empty() && ep != my_endpoint);
        self.engine.rounds += 1;
        RoundPlan {
            sync: self.engine.sync_request(),
            targets,
            wires: std::mem::take(&mut self.outbox),
        }
    }

    /// Take in the reply to a planned Sync with `(peer, endpoint)`; a seed
    /// contact (no name yet) is identified by its endpoint.
    pub fn absorb(&mut self, peer: Option<&str>, endpoint: &str, reply: &GossipReply, now_ms: u64) {
        let name = peer.map(str::to_string).or_else(|| match reply {
            GossipReply::Sync { entries, .. } => entries
                .iter()
                .find(|e| e.endpoint == endpoint)
                .map(|e| e.name.clone()),
            _ => None,
        });
        if let Some(name) = name {
            self.engine.absorb_reply(&name, reply, now_ms);
            self.index_names();
        }
    }

    /// Serve one inbound `Gossip` envelope at `now_ms`: quick state merges
    /// only, every resulting send deferred to the outbox.
    pub fn handle(&mut self, req: GossipRequest, now_ms: u64) -> GossipReply {
        match req {
            GossipRequest::Sync {
                from,
                entries,
                view,
            } => {
                let reply = self
                    .engine
                    .handle_sync(&from, &entries, view.as_ref(), now_ms);
                self.index_names();
                reply
            }
            GossipRequest::Group { group, from, wire } => {
                if group != self.group || !self.connected {
                    return GossipReply::Ack;
                }
                let from = Addr(from);
                if let Some(name) = self.name_of(from).map(str::to_string) {
                    self.engine.note_contact(&name, now_ms);
                }
                let Ok(w) = Wire::decode(&wire) else {
                    // Dropped, but not silently: the sender's protocol
                    // step is lost with it.
                    self.undecodable_frames.inc();
                    return GossipReply::Ack;
                };
                let outgoing = self.core.on_wire(from, w);
                self.deliver(outgoing);
                GossipReply::Ack
            }
        }
    }

    /// Drive the view lineage: fold the installed view in, let the
    /// (unique) candidate propose the next view when the alive-set changed
    /// and quorum holds, and keep re-asserting the current view to its
    /// members so a dropped `InstallView` heals instead of wedging a
    /// joiner.
    fn maintain_views(&mut self) {
        if !self.connected {
            return;
        }
        let me = self.engine.table.my_name().to_string();
        if let Some(summary) = self.view() {
            self.engine.observe_view(&summary);
        }
        if let Some(p) = bridge::propose(&self.engine, &me) {
            self.engine.observe_view(&p.summary);
            self.core.install_view(p.view);
        } else if !bridge::is_candidate(&self.engine, &me) {
            return;
        }
        // The candidate (re-)asserts its view: idempotent at receivers.
        let (Some(view), Some(summary)) = (self.core.view().cloned(), self.view()) else {
            return;
        };
        let install = Wire::InstallView(view);
        for name in summary.members.iter().filter(|n| **n != me) {
            self.queue(name, &install);
        }
    }
}

/// The replica's transport handle: routes [`HdnsNode`]'s group traffic
/// through the shared [`NodeState`] onto real TCP.
#[derive(Clone)]
pub struct TcpChannel {
    state: Arc<Mutex<NodeState>>,
}

impl ReplicaChannel for TcpChannel {
    fn addr(&self) -> Addr {
        self.state.lock().core.me()
    }

    /// Join `group`. A node with no seed and no lineage founds it: it
    /// installs the singleton view every later view descends from.
    fn connect(&self, group: &str) -> std::result::Result<(), SendError> {
        let mut state = self.state.lock();
        state.group = group.to_string();
        state.connected = true;
        if state.seed.is_none() && state.engine.best_view().is_none() {
            let founding = bridge::bootstrap(state.engine.table.my_name());
            state.engine.observe_view(&founding.summary);
            state.core.install_view(founding.view);
        }
        Ok(())
    }

    fn disconnect(&self) {
        let mut state = self.state.lock();
        state.connected = false;
        state.core.clear_view();
    }

    fn mcast(&self, bytes: Vec<u8>) -> std::result::Result<(), SendError> {
        let mut state = self.state.lock();
        if !state.connected {
            return Err(SendError::NotConnected);
        }
        let outgoing = state.core.mcast(bytes)?;
        state.deliver(outgoing);
        Ok(())
    }

    fn poll(&self) -> Vec<groupcast::ChannelEvent> {
        self.state.lock().core.take_events()
    }

    fn provide_state(&self, to: Addr, bytes: Vec<u8>) -> std::result::Result<(), SendError> {
        let mut state = self.state.lock();
        let out = state.core.provide_state(to, bytes);
        state.deliver(vec![out]);
        Ok(())
    }
}

/// One node's HDNS replica and the membership state that gates it: a node
/// minus its sockets, clock and threads. Reads answer from the local
/// replica ("nearest node"); writes replicate through the group and
/// acknowledge only after ordered self-delivery, in the primary partition.
#[derive(Clone)]
pub struct NodeReplica {
    // Both public for the crate's simulation tests only.
    #[doc(hidden)]
    pub state: Arc<Mutex<NodeState>>,
    #[doc(hidden)]
    pub hdns: Arc<Mutex<HdnsNode<TcpChannel>>>,
}

impl NodeReplica {
    /// A node yet to join; `registry` takes its `rndi_cluster_*` series.
    pub fn new(config: &ClusterConfig, registry: &Registry) -> NodeReplica {
        let table = MembershipTable::new(&config.name, "", config.quarantine_ms);
        let state = Arc::new(Mutex::new(NodeState {
            engine: GossipEngine::new(table, config.phi_threshold, config.gossip_interval_ms),
            core: MemberCore::new(addr_of(&config.name), OrderingMode::Sequencer),
            group: config.group.clone(),
            connected: false,
            names_by_addr: BTreeMap::from([(addr_of(&config.name), config.name.clone())]),
            outbox: Vec::new(),
            seed: config.seed.clone(),
            undecodable_frames: registry.counter(names::CLUSTER_UNDECODABLE_FRAMES, &[]),
        }));
        let channel = TcpChannel {
            state: state.clone(),
        };
        NodeReplica {
            state,
            hdns: Arc::new(Mutex::new(HdnsNode::new(channel, None))),
        }
    }

    /// Start taking part from `endpoint`: join the group (founding its
    /// view lineage when configured with no seed).
    pub fn open(&self, endpoint: &str) -> Result<()> {
        let group = {
            let mut state = self.state.lock();
            state.engine.table.set_my_endpoint(endpoint);
            state.group.clone()
        };
        self.hdns
            .lock()
            .connect(&group)
            .map_err(|e| NamingError::service(format!("join group: {e}")))
    }

    /// Write gate → submit → wait for the ordered self-delivery; `pump` as
    /// for [`replicate`].
    pub fn write(&self, op: Op, pump: impl FnMut() -> bool) -> std::result::Result<(), RealmError> {
        if !self.state.lock().writes_allowed() {
            return Err(RealmError::NotPrimary);
        }
        // Answer a joiner's state request before this write's `Ordered` is
        // queued: a snapshot queued behind it would wipe it at the joiner.
        self.hdns.lock().process();
        replicate(&self.hdns, op, pump)
    }

    /// [`NodeReplica::write`] while the pacer thread carries the frames:
    /// pump the replica between 1 ms naps for at most `budget`.
    fn write_within(&self, op: Op, budget: Duration) -> std::result::Result<(), RealmError> {
        let deadline = Instant::now() + budget;
        let mut napped = false;
        self.write(op, || {
            if std::mem::replace(&mut napped, true) {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.hdns.lock().process();
            Instant::now() < deadline
        })
    }
}

impl Replica for NodeReplica {
    fn lookup(&self, path: &str) -> Option<HdnsEntry> {
        self.hdns.lock().lookup(path)
    }
    fn list(&self, prefix: &str) -> Vec<(String, HdnsEntry)> {
        self.hdns.lock().list(prefix)
    }
    /// The node's `NetServer` records the server span of a served op, so
    /// `trace` has nothing further to link here.
    fn write(&self, op: Op, _trace: Option<&TraceCtx>) -> std::result::Result<(), RealmError> {
        self.write_within(op, BACKEND_WRITE_BUDGET)
    }
    fn take_events(&self) -> Vec<HdnsEvent> {
        self.hdns.lock().take_events()
    }
    fn pump(&self) {
        self.hdns.lock().process()
    }
}

/// Serves inbound `Gossip` envelopes on the server's event loop.
struct Handler {
    state: Arc<Mutex<NodeState>>,
    epoch: Instant,
}

impl GossipHandler for Handler {
    fn handle(&self, req: GossipRequest) -> GossipReply {
        let now = self.epoch.elapsed().as_millis() as u64;
        self.state.lock().handle(req, now)
    }
}

/// One booted member of the cluster membership plane.
pub struct ClusterNode {
    config: ClusterConfig,
    endpoint: String,
    replica: NodeReplica,
    server: Option<NetServer>,
    registry: Arc<Registry>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    pacer: Option<JoinHandle<()>>,
}

impl ClusterNode {
    /// Boot a node: bind the server, join the group, start gossiping.
    /// With no seed configured the node bootstraps the view lineage as a
    /// singleton; otherwise it courts the seed until absorbed.
    pub fn start(config: ClusterConfig) -> Result<ClusterNode> {
        let epoch = Instant::now();
        let registry = Arc::new(Registry::new());
        let replica = NodeReplica::new(&config, &registry);
        let server = NetServer::with_registry(
            HdnsProviderContext::over(Box::new(replica.clone()), &config.name, &config.env),
            ServerConfig::from_env(&config.env)?,
            registry.clone(),
        )?;
        let endpoint = server.local_addr().to_string();
        server.set_gossip_handler(Arc::new(Handler {
            state: replica.state.clone(),
            epoch,
        }));
        let membership = server.membership_stats();
        replica.open(&endpoint)?;

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pacer = {
            let replica = replica.clone();
            let stop = stop.clone();
            let registry = registry.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name(format!("cluster-pacer-{}", config.name))
                .spawn(move || pace(replica, stop, registry, membership, config, epoch))
                .map_err(|e| NamingError::service(format!("spawn pacer: {e}")))?
        };

        Ok(ClusterNode {
            config,
            endpoint,
            replica,
            server: Some(server),
            registry,
            stop,
            pacer: Some(pacer),
        })
    }

    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// `host:port` this node's server (naming + admin + gossip) is on.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// This node's current belief about every member.
    pub fn members(&self) -> Vec<MemberEntry> {
        self.replica.state.lock().members()
    }

    /// The installed group view, in member names.
    pub fn view(&self) -> Option<ViewSummary> {
        self.replica.state.lock().view()
    }

    /// Is this node currently allowed to acknowledge writes?
    pub fn writes_allowed(&self) -> bool {
        self.replica.state.lock().writes_allowed()
    }

    /// Replica-local read.
    pub fn lookup(&self, path: &str) -> Option<HdnsEntry> {
        self.replica.hdns.lock().lookup(path)
    }

    /// Replicate a write from inside the process and wait for its ordered
    /// outcome (primary partition only; test/demo convenience — clients
    /// write through the node's endpoint).
    pub fn write_sync(&self, op: Op) -> std::result::Result<(), RealmError> {
        self.replica.write_within(op, WRITE_BUDGET)
    }

    /// The node's private metrics registry (scraped remotely via admin).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Stop the pacer; what is left to stop is the server.
    fn halt(&mut self) -> Option<NetServer> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(p) = self.pacer.take() {
            let _ = p.join();
        }
        self.server.take()
    }

    /// Crash the node: tear sockets down mid-request, no goodbyes. The
    /// rest of the cluster finds out the phi-accrual way.
    pub fn kill(self) {
        drop(self) // dropping a node is crashing it
    }

    /// Graceful exit: persist, leave the group, drain the server.
    pub fn shutdown(mut self) {
        let server = self.halt();
        self.replica.hdns.lock().shutdown();
        if let Some(s) = server {
            s.shutdown();
        }
    }
}

impl Drop for ClusterNode {
    fn drop(&mut self) {
        if let Some(s) = self.halt() {
            s.abort();
        }
    }
}

/// The node's clock and sockets: each round, ask the state for its plan,
/// carry it out, hand the replies back.
fn pace(
    replica: NodeReplica,
    stop: Arc<std::sync::atomic::AtomicBool>,
    registry: Arc<Registry>,
    membership: Arc<MembershipStats>,
    config: ClusterConfig,
    epoch: Instant,
) {
    let mut clients: BTreeMap<String, NetClient> = BTreeMap::new();
    let interval = Duration::from_millis(config.gossip_interval_ms);
    let now = || epoch.elapsed().as_millis() as u64;
    while !stop.load(Ordering::SeqCst) {
        let plan = replica.state.lock().plan_round(now());

        // Network, no lock. Failed peers just miss heartbeats — that is
        // the signal, not an error to handle.
        let mut exchange = |ep: &str, req: GossipRequest| {
            let reply = client_for(&mut clients, ep, &config)?.gossip(req);
            if reply.is_err() {
                clients.remove(ep);
            }
            reply.ok()
        };
        for (peer, ep) in &plan.targets {
            if let Some(reply) = exchange(ep, plan.sync.clone()) {
                let mut state = replica.state.lock();
                state.absorb(peer.as_deref(), ep, &reply, now());
            }
        }
        for (ep, wire) in plan.wires {
            exchange(&ep, wire);
        }

        // Pump the replica (applies deliveries, answers state requests
        // into the outbox for the next flush).
        replica.hdns.lock().process();

        export(&replica.state, &registry, &membership, now());

        std::thread::sleep(interval);
    }
}

fn client_for<'a>(
    clients: &'a mut BTreeMap<String, NetClient>,
    ep: &str,
    config: &ClusterConfig,
) -> Option<&'a NetClient> {
    if !clients.contains_key(ep) {
        clients.insert(ep.to_string(), NetClient::new(ep, &config.env).ok()?);
    }
    clients.get(ep)
}

/// Export membership into the health atomics (served by `Admin::Health`)
/// and the node's registry (merged by cluster scrapes).
fn export(
    state: &Mutex<NodeState>,
    registry: &Registry,
    membership: &MembershipStats,
    now_ms: u64,
) {
    let i = state.lock();
    let count = |state| i.engine.table.count(state) as u64;
    let alive = count(MemberState::Alive);
    let suspect = count(MemberState::Suspect);
    let dead = count(MemberState::Dead) + count(MemberState::Quarantined);
    let epoch_seq = i.core.view().map_or(0, |v| v.id.seq);
    let rounds = i.engine.rounds;
    let phi_millis = (i.engine.max_phi(now_ms) * 1_000.0) as u64;
    drop(i);

    membership.alive.store(alive, Ordering::Relaxed);
    membership.suspect.store(suspect, Ordering::Relaxed);
    membership.dead.store(dead, Ordering::Relaxed);
    membership.view_epoch.store(epoch_seq, Ordering::Relaxed);

    for (name, value) in [
        (names::CLUSTER_MEMBERS, alive),
        (names::CLUSTER_SUSPECTS, suspect),
        (names::CLUSTER_VIEW_EPOCH, epoch_seq),
        (names::CLUSTER_PHI, phi_millis),
    ] {
        registry.gauge(name, &[]).set(value as i64);
    }
    let counter = registry.counter(names::CLUSTER_GOSSIP_ROUNDS, &[]);
    let done = counter.get();
    if rounds > done {
        counter.add(rounds - done);
    }
}
