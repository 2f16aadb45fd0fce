//! [`ClusterNode`]: one member of the TCP membership plane.
//!
//! Each node hosts a [`NetServer`] whose v2 envelope protocol carries
//! three planes over the *same* listener: naming calls (a lean
//! [`ProviderBackend`] over the local HDNS replica), admin telemetry
//! (scrapes see membership through `Admin::Health`), and the new
//! `Gossip` family — membership Syncs plus `Group`-wrapped
//! [`groupcast::Wire`] frames that carry the replication protocol
//! (sequencer forwards, ordered deliveries, view installs, state
//! snapshots) peer-to-peer.
//!
//! Concurrency model: all protocol state lives in one `Inner` behind a
//! mutex, and **no TCP I/O ever happens while it is held**. The server's
//! gossip handler runs inline on a shard event loop, so it only mutates
//! state and appends wire frames to an *outbox*; a per-node pacer thread
//! drains the outbox, runs gossip rounds, evaluates phi, drives view
//! proposals, pumps the HDNS replica, and exports telemetry.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use groupcast::{Addr, MemberCore, OrderingMode, Outgoing, SendError, Wire};
use hdns::{HdnsEntry, HdnsNode, Op, OpOutcome as HdnsOutcome, ReplicaChannel, Ticket};
use rndi_core::context::NameClassPair;
use rndi_core::error::{NamingError, Result};
use rndi_core::op::{NamingOp, OpKind, OpOutcome};
use rndi_core::spi::ProviderBackend;
use rndi_net::proto::{GossipReply, GossipRequest, MemberEntry, MemberState, ViewSummary};
use rndi_net::{GossipHandler, MembershipStats, NetClient, NetServer, ServerConfig};
use rndi_obs::metrics::{names, Counter, Registry};

use crate::bridge::{self, addr_of};
use crate::config::ClusterConfig;
use crate::gossip::GossipEngine;
use crate::membership::MembershipTable;

/// How long an in-process [`ClusterNode::write_sync`] waits for its
/// ordered self-delivery.
const WRITE_BUDGET: Duration = Duration::from_millis(3_000);

/// How long the *served* backend waits. Backend calls run inline on a
/// server shard's event loop, so this must stay well under the phi
/// suspect bound (~18× the gossip interval at the default threshold) —
/// a stalled wait must surface as a retryable error to the remote
/// caller, not as seconds of inbound-frame starvation that read as this
/// node going silent.
const BACKEND_WRITE_BUDGET: Duration = Duration::from_millis(250);

/// All protocol state of one node. See the module doc for the locking
/// rule: mutate freely, never touch a socket while holding this.
struct Inner {
    engine: GossipEngine,
    core: MemberCore,
    group: String,
    connected: bool,
    /// Reverse of [`bridge::addr_of`] over every known member name.
    names_by_addr: BTreeMap<Addr, String>,
    /// Group wires awaiting the pacer's flush, per target endpoint.
    outbox: Vec<(String, GossipRequest)>,
    /// Endpoints this node refuses to exchange with (fault injection:
    /// a symmetric pair of blocks simulates a network partition).
    blocked: BTreeSet<String>,
    /// Seed endpoint still being courted (dropped once it appears in the
    /// membership table).
    seed: Option<String>,
}

impl Inner {
    fn now_names(&mut self) {
        self.names_by_addr = self
            .engine
            .table
            .entries()
            .into_iter()
            .map(|e| (addr_of(&e.name), e.name))
            .collect();
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
            let Some(name) = self.names_by_addr.get(&out.to).cloned() else {
                continue;
            };
            let Some(ep) = self.endpoint_of(&name) else {
                continue;
            };
            if self.blocked.contains(&ep) {
                continue;
            }
            self.outbox.push((
                ep,
                GossipRequest::Group {
                    group: self.group.clone(),
                    from: me.0,
                    wire: out.wire.encode(),
                },
            ));
        }
    }

    /// Strict-majority write gate: the installed view must contain a
    /// strict majority of *all known* member names still believed Alive.
    /// A minority partition fails this and refuses writes, which is what
    /// makes "no acknowledged write lost" hold across heals.
    fn writes_allowed(&self) -> bool {
        let Some(view) = self.core.view() else {
            return false;
        };
        // A node whose installed view trails the lineage it has *heard*
        // is healing from a partition: the gossip piggyback guarantees it
        // learned the higher-sequence view no later than it learned its
        // peers were back, so refusing here closes the window where a
        // stale five-member view would pass the quorum count again.
        if self
            .engine
            .best_view()
            .is_some_and(|best| best.seq > view.id.seq)
        {
            return false;
        }
        let alive_in_view = view
            .members
            .iter()
            .filter(|a| {
                self.names_by_addr
                    .get(a)
                    .and_then(|n| self.engine.table.get(n))
                    .is_some_and(|m| m.state == MemberState::Alive)
            })
            .count();
        alive_in_view * 2 > self.engine.table.known_count()
    }

    /// The installed view rendered in names (for gossip and telemetry).
    fn installed_summary(&self) -> Option<ViewSummary> {
        let view = self.core.view()?;
        let members = view
            .members
            .iter()
            .map(|a| {
                self.names_by_addr
                    .get(a)
                    .cloned()
                    .unwrap_or_else(|| format!("?{}", a.0))
            })
            .collect();
        Some(ViewSummary {
            seq: view.id.seq,
            members,
        })
    }
}

/// The replica's transport handle: routes [`HdnsNode`]'s group traffic
/// through the shared [`Inner`] onto real TCP.
#[derive(Clone)]
pub struct TcpChannel {
    inner: Arc<Mutex<Inner>>,
}

impl ReplicaChannel for TcpChannel {
    fn addr(&self) -> Addr {
        self.inner.lock().core.me()
    }

    fn connect(&self, group: &str) -> std::result::Result<(), SendError> {
        let mut inner = self.inner.lock();
        inner.group = group.to_string();
        inner.connected = true;
        Ok(())
    }

    fn disconnect(&self) {
        let mut inner = self.inner.lock();
        inner.connected = false;
        inner.core.clear_view();
    }

    fn mcast(&self, bytes: Vec<u8>) -> std::result::Result<(), SendError> {
        let mut inner = self.inner.lock();
        if !inner.connected {
            return Err(SendError::NotConnected);
        }
        let outgoing = inner.core.mcast(bytes)?;
        inner.deliver(outgoing);
        Ok(())
    }

    fn poll(&self) -> Vec<groupcast::ChannelEvent> {
        self.inner.lock().core.take_events()
    }

    fn provide_state(&self, to: Addr, bytes: Vec<u8>) -> std::result::Result<(), SendError> {
        let mut inner = self.inner.lock();
        let out = inner.core.provide_state(to, bytes);
        inner.deliver(vec![out]);
        Ok(())
    }
}

/// Serves inbound `Gossip` envelopes on the server's event loop: quick
/// state merges only, every resulting send deferred to the outbox.
struct Handler {
    inner: Arc<Mutex<Inner>>,
    epoch: Instant,
    /// `rndi_cluster_undecodable_frames_total` in the node's registry.
    undecodable_frames: Arc<Counter>,
}

impl GossipHandler for Handler {
    fn handle(&self, req: GossipRequest) -> GossipReply {
        let now = self.epoch.elapsed().as_millis() as u64;
        let mut inner = self.inner.lock();
        match req {
            GossipRequest::Sync {
                from,
                entries,
                view,
            } => {
                if inner.blocked.contains(&from.endpoint) {
                    // Partitioned-off peer: reveal nothing, learn nothing.
                    return GossipReply::Ack;
                }
                let reply = inner
                    .engine
                    .handle_sync(&from, &entries, view.as_ref(), now);
                inner.now_names();
                reply
            }
            GossipRequest::Group { group, from, wire } => {
                if group != inner.group || !inner.connected {
                    return GossipReply::Ack;
                }
                let from = Addr(from);
                if let Some(name) = inner.names_by_addr.get(&from).cloned() {
                    if let Some(ep) = inner.endpoint_of(&name) {
                        if inner.blocked.contains(&ep) {
                            return GossipReply::Ack;
                        }
                    }
                    inner.engine.note_contact(&name, now);
                }
                let Ok(w) = Wire::decode(&wire) else {
                    // Dropped, but not silently: the sender's protocol
                    // step is lost with it.
                    self.undecodable_frames.inc();
                    return GossipReply::Ack;
                };
                // Never regress the lineage: a candidate that healed out of
                // a minority partition keeps re-asserting its stale view
                // until gossip catches it up, and blindly installing that
                // would roll a majority-side member back. (Same-seq
                // conflicts cannot arise — a minority can never reach the
                // quorum needed to mint one.)
                let stale_install = match &w {
                    Wire::InstallView(v) => {
                        inner.core.view().is_some_and(|cur| v.id.seq < cur.id.seq)
                    }
                    _ => false,
                };
                if !stale_install {
                    let outgoing = inner.core.on_wire(from, w);
                    inner.deliver(outgoing);
                }
                GossipReply::Ack
            }
        }
    }
}

/// The lean naming backend each node hosts: reads answer from the local
/// replica ("nearest node" semantics); writes replicate through the
/// group and only acknowledge after ordered self-delivery — and only
/// while this node sits in the primary partition.
struct ClusterBackend {
    name: String,
    inner: Arc<Mutex<Inner>>,
    hdns: Arc<Mutex<HdnsNode<TcpChannel>>>,
}

impl ClusterBackend {
    fn path(op: &NamingOp) -> Result<String> {
        if op.name.is_empty() {
            return Err(NamingError::invalid_name("", "empty name"));
        }
        Ok(op.name.components().join("/"))
    }

    fn write(&self, op: Op) -> Result<()> {
        if !self.inner.lock().writes_allowed() {
            return Err(NamingError::service(
                "not in the primary partition: writes refused",
            ));
        }
        let ticket = self
            .hdns
            .lock()
            .submit(op)
            .map_err(|e| NamingError::service(format!("replicate: {e}")))?;
        let deadline = Instant::now() + BACKEND_WRITE_BUDGET;
        loop {
            {
                let mut node = self.hdns.lock();
                node.process();
                match node.outcome(ticket) {
                    HdnsOutcome::Pending => {}
                    HdnsOutcome::Done(Ok(())) => return Ok(()),
                    HdnsOutcome::Done(Err(e)) => {
                        return Err(NamingError::service(format!("hdns: {e}")))
                    }
                    HdnsOutcome::Lost => return Err(NamingError::service("replica lost the op")),
                }
            }
            if Instant::now() >= deadline {
                self.hdns.lock().abandon(ticket);
                return Err(NamingError::service("write not ordered within budget"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl ProviderBackend for ClusterBackend {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        match op.kind {
            OpKind::Lookup => {
                let path = Self::path(op)?;
                let entry = self
                    .hdns
                    .lock()
                    .lookup(&path)
                    .ok_or_else(|| NamingError::not_found(&path))?;
                if entry.is_context {
                    return Err(NamingError::service(format!("{path}: is a context")));
                }
                Ok(OpOutcome::Wire(entry.value))
            }
            OpKind::List => {
                let prefix = if op.name.is_empty() {
                    String::new()
                } else {
                    Self::path(op)?
                };
                let pairs = self
                    .hdns
                    .lock()
                    .list(&prefix)
                    .into_iter()
                    .map(|(name, e)| NameClassPair {
                        name,
                        class_name: if e.is_context { "context" } else { "object" }.to_string(),
                    })
                    .collect();
                Ok(OpOutcome::Names(pairs))
            }
            OpKind::Bind | OpKind::Rebind => {
                let (payload, _) = op.wire_value()?;
                self.write(Op::Bind {
                    path: Self::path(op)?,
                    entry: HdnsEntry::leaf(payload),
                    overwrite: op.kind == OpKind::Rebind,
                })?;
                Ok(OpOutcome::Done)
            }
            OpKind::Unbind => {
                self.write(Op::Unbind {
                    path: Self::path(op)?,
                })?;
                Ok(OpOutcome::Done)
            }
            OpKind::CreateSubcontext => {
                self.write(Op::CreateContext {
                    path: Self::path(op)?,
                })?;
                Ok(OpOutcome::Done)
            }
            _ => Err(NamingError::unsupported(format!(
                "cluster backend: {:?}",
                op.kind
            ))),
        }
    }

    fn provider_id(&self) -> String {
        format!("cluster:{}", self.name)
    }
}

/// One booted member of the cluster membership plane.
pub struct ClusterNode {
    config: ClusterConfig,
    endpoint: String,
    inner: Arc<Mutex<Inner>>,
    hdns: Arc<Mutex<HdnsNode<TcpChannel>>>,
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
        let me = addr_of(&config.name);
        let table = MembershipTable::new(&config.name, "", config.quarantine_ms);
        let engine = GossipEngine::new(table, config.phi_threshold, config.gossip_interval_ms);
        let inner = Arc::new(Mutex::new(Inner {
            engine,
            core: MemberCore::new(me, OrderingMode::Sequencer),
            group: config.group.clone(),
            connected: false,
            names_by_addr: BTreeMap::new(),
            outbox: Vec::new(),
            blocked: BTreeSet::new(),
            seed: config.seed.clone(),
        }));
        let channel = TcpChannel {
            inner: inner.clone(),
        };
        let hdns = Arc::new(Mutex::new(HdnsNode::new(channel, None)));
        let registry = Arc::new(Registry::new());
        let backend = Arc::new(ClusterBackend {
            name: config.name.clone(),
            inner: inner.clone(),
            hdns: hdns.clone(),
        });
        let server = NetServer::with_registry(
            backend,
            ServerConfig::from_env(&config.env)?,
            registry.clone(),
        )?;
        let endpoint = server.local_addr().to_string();
        server.set_gossip_handler(Arc::new(Handler {
            inner: inner.clone(),
            epoch,
            undecodable_frames: registry.counter(names::CLUSTER_UNDECODABLE_FRAMES, &[]),
        }));
        let membership = server.membership_stats();

        {
            let mut i = inner.lock();
            i.engine.table.set_my_endpoint(&endpoint);
            i.now_names();
        }
        hdns.lock()
            .connect(&config.group)
            .map_err(|e| NamingError::service(format!("join group: {e}")))?;
        if config.seed.is_none() {
            let mut i = inner.lock();
            let (view, summary) = bridge::bootstrap(&config.name);
            i.engine.observe_view(&summary);
            i.core.install_view(view);
        }

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pacer = {
            let inner = inner.clone();
            let hdns = hdns.clone();
            let stop = stop.clone();
            let registry = registry.clone();
            let membership = membership.clone();
            let config = config.clone();
            let endpoint = endpoint.clone();
            std::thread::Builder::new()
                .name(format!("cluster-pacer-{}", config.name))
                .spawn(move || {
                    pace(
                        inner, hdns, stop, registry, membership, config, endpoint, epoch,
                    )
                })
                .map_err(|e| NamingError::service(format!("spawn pacer: {e}")))?
        };

        Ok(ClusterNode {
            config,
            endpoint,
            inner,
            hdns,
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

    pub fn incarnation(&self) -> u64 {
        self.inner.lock().engine.table.incarnation()
    }

    /// This node's current belief about every member.
    pub fn members(&self) -> Vec<MemberEntry> {
        self.inner.lock().engine.table.entries()
    }

    /// The installed group view, in member names.
    pub fn view(&self) -> Option<ViewSummary> {
        self.inner.lock().installed_summary()
    }

    /// Is this node currently allowed to acknowledge writes?
    pub fn writes_allowed(&self) -> bool {
        self.inner.lock().writes_allowed()
    }

    /// Entries in the local replica store.
    pub fn entry_count(&self) -> usize {
        self.hdns.lock().entry_count()
    }

    /// Replica-local read.
    pub fn lookup(&self, path: &str) -> Option<HdnsEntry> {
        self.hdns.lock().lookup(path)
    }

    /// Submit a replicated write (primary partition only). The returned
    /// ticket resolves via [`ClusterNode::outcome`] once the op's ordered
    /// self-delivery lands.
    pub fn submit(&self, op: Op) -> std::result::Result<Ticket, SendError> {
        if !self.inner.lock().writes_allowed() {
            return Err(SendError::NotConnected);
        }
        self.hdns.lock().submit(op)
    }

    /// Check (and, when resolved, consume) a ticket.
    pub fn outcome(&self, ticket: Ticket) -> HdnsOutcome {
        let mut node = self.hdns.lock();
        node.process();
        node.outcome(ticket)
    }

    /// Submit and wait for the ordered outcome (test/demo convenience).
    pub fn write_sync(&self, op: Op) -> HdnsOutcome {
        let ticket = match self.submit(op) {
            Ok(t) => t,
            Err(_) => return HdnsOutcome::Lost,
        };
        let deadline = Instant::now() + WRITE_BUDGET;
        loop {
            match self.outcome(ticket) {
                HdnsOutcome::Pending => {}
                resolved => return resolved,
            }
            if Instant::now() >= deadline {
                // Nobody holds the ticket after this: let it go.
                self.hdns.lock().abandon(ticket);
                return HdnsOutcome::Pending;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Fault injection: refuse all exchange with `endpoints` (apply the
    /// mirror-image block on the other side for a symmetric partition).
    pub fn block_endpoints(&self, endpoints: &[String]) {
        let mut inner = self.inner.lock();
        inner.blocked.extend(endpoints.iter().cloned());
    }

    /// Heal all injected partitions on this node.
    pub fn clear_blocked(&self) {
        self.inner.lock().blocked.clear();
    }

    /// The node's private metrics registry (scraped remotely via admin).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Crash the node: tear sockets down mid-request, no goodbyes. The
    /// rest of the cluster finds out the phi-accrual way.
    pub fn kill(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(p) = self.pacer.take() {
            let _ = p.join();
        }
        if let Some(s) = self.server.take() {
            s.abort();
        }
    }

    /// Graceful exit: persist, leave the group, drain the server.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(p) = self.pacer.take() {
            let _ = p.join();
        }
        self.hdns.lock().shutdown();
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

impl Drop for ClusterNode {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(p) = self.pacer.take() {
            let _ = p.join();
        }
        if let Some(s) = self.server.take() {
            s.abort();
        }
    }
}

/// One gossip round's outbound work, computed under the lock, executed
/// off it.
struct RoundPlan {
    sync: GossipRequest,
    /// `(peer name if known, endpoint)` to Sync with.
    targets: Vec<(Option<String>, String)>,
    wires: Vec<(String, GossipRequest)>,
}

#[allow(clippy::too_many_arguments)]
fn pace(
    inner: Arc<Mutex<Inner>>,
    hdns: Arc<Mutex<HdnsNode<TcpChannel>>>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    registry: Arc<Registry>,
    membership: Arc<MembershipStats>,
    config: ClusterConfig,
    my_endpoint: String,
    epoch: Instant,
) {
    let mut clients: BTreeMap<String, NetClient> = BTreeMap::new();
    let interval = Duration::from_millis(config.gossip_interval_ms);
    while !stop.load(Ordering::SeqCst) {
        let now = epoch.elapsed().as_millis() as u64;

        // Phase 1: state only, under the lock.
        let plan = {
            let mut i = inner.lock();
            i.engine.tick(now);
            i.now_names();
            maintain_views(&mut i, &config.name);
            let mut targets: Vec<(Option<String>, String)> = i
                .engine
                .gossip_targets()
                .into_iter()
                .map(|(n, ep)| (Some(n), ep))
                .collect();
            if let Some(seed) = i.seed.clone() {
                let known = targets.iter().any(|(_, ep)| *ep == seed);
                if known || i.engine.table.known_count() > 1 {
                    i.seed = None; // absorbed; normal gossip takes over
                } else {
                    targets.push((None, seed));
                }
            }
            targets
                .retain(|(_, ep)| !ep.is_empty() && *ep != my_endpoint && !i.blocked.contains(ep));
            i.engine.rounds += 1;
            RoundPlan {
                sync: i.engine.sync_request(),
                targets,
                wires: std::mem::take(&mut i.outbox),
            }
        };

        // Phase 2: network, no lock. Failed peers just miss heartbeats —
        // that is the signal, not an error to handle.
        for (peer, ep) in &plan.targets {
            let Some(client) = client_for(&mut clients, ep, &config) else {
                continue;
            };
            match client.gossip(plan.sync.clone()) {
                Ok(reply) => {
                    let now = epoch.elapsed().as_millis() as u64;
                    let mut i = inner.lock();
                    let name = peer.clone().or_else(|| {
                        // Seed contact: identify the peer by endpoint.
                        if let GossipReply::Sync { entries, .. } = &reply {
                            entries
                                .iter()
                                .find(|e| e.endpoint == *ep)
                                .map(|e| e.name.clone())
                        } else {
                            None
                        }
                    });
                    if let Some(name) = name {
                        i.engine.absorb_reply(&name, &reply, now);
                        i.now_names();
                    }
                }
                Err(_) => {
                    clients.remove(ep);
                }
            }
        }
        for (ep, wire) in plan.wires {
            if let Some(client) = client_for(&mut clients, &ep, &config) {
                if client.gossip(wire).is_err() {
                    clients.remove(&ep);
                }
            }
        }

        // Phase 3: pump the replica (applies deliveries, answers state
        // requests into the outbox for the next flush).
        hdns.lock().process();

        // Phase 4: telemetry.
        export(&inner, &registry, &membership, epoch);

        std::thread::sleep(interval);
    }
}

fn client_for<'a>(
    clients: &'a mut BTreeMap<String, NetClient>,
    ep: &str,
    config: &ClusterConfig,
) -> Option<&'a NetClient> {
    if !clients.contains_key(ep) {
        match NetClient::new(ep, &config.env) {
            Ok(c) => {
                clients.insert(ep.to_string(), c);
            }
            Err(_) => return None,
        }
    }
    clients.get(ep)
}

/// Drive the view lineage: fold the installed view in, let the (unique)
/// candidate propose the next view when the alive-set changed and quorum
/// holds, and keep re-asserting the current view to its members so a
/// dropped `InstallView` heals instead of wedging a joiner.
fn maintain_views(inner: &mut Inner, me: &str) {
    if !inner.connected {
        return;
    }
    if let Some(summary) = inner.installed_summary() {
        inner.engine.observe_view(&summary);
    }
    if let Some(p) = bridge::propose(&inner.engine, me) {
        let summary = bridge::summarize(&p.view, &p.names);
        inner.engine.observe_view(&summary);
        inner.core.install_view(p.view.clone());
        queue_install(inner, &p.view, &p.names, me);
        return;
    }
    // Steady state: the candidate re-asserts (idempotent at receivers).
    if bridge::is_candidate(&inner.engine, me) {
        if let (Some(view), Some(summary)) = (inner.core.view().cloned(), inner.installed_summary())
        {
            queue_install(inner, &view, &summary.members, me);
        }
    }
}

fn queue_install(inner: &mut Inner, view: &groupcast::View, names: &[String], me: &str) {
    for name in names {
        if name == me {
            continue;
        }
        let Some(ep) = inner.endpoint_of(name) else {
            continue;
        };
        if inner.blocked.contains(&ep) {
            continue;
        }
        inner.outbox.push((
            ep,
            GossipRequest::Group {
                group: inner.group.clone(),
                from: inner.core.me().0,
                wire: Wire::InstallView(view.clone()).encode(),
            },
        ));
    }
}

/// Export membership into the health atomics (served by `Admin::Health`)
/// and the node's registry (merged by cluster scrapes).
fn export(
    inner: &Arc<Mutex<Inner>>,
    registry: &Arc<Registry>,
    membership: &Arc<MembershipStats>,
    epoch: Instant,
) {
    let now = epoch.elapsed().as_millis() as u64;
    let i = inner.lock();
    let alive = i.engine.table.count(MemberState::Alive) as u64;
    let suspect = i.engine.table.count(MemberState::Suspect) as u64;
    let dead = (i.engine.table.count(MemberState::Dead)
        + i.engine.table.count(MemberState::Quarantined)) as u64;
    let epoch_seq = i.core.view().map_or(0, |v| v.id.seq);
    let rounds = i.engine.rounds;
    let phi_millis = (i.engine.max_phi(now) * 1_000.0) as i64;
    drop(i);

    membership.alive.store(alive, Ordering::Relaxed);
    membership.suspect.store(suspect, Ordering::Relaxed);
    membership.dead.store(dead, Ordering::Relaxed);
    membership.view_epoch.store(epoch_seq, Ordering::Relaxed);

    registry
        .gauge(names::CLUSTER_MEMBERS, &[])
        .set(alive as i64);
    registry
        .gauge(names::CLUSTER_SUSPECTS, &[])
        .set(suspect as i64);
    registry
        .gauge(names::CLUSTER_VIEW_EPOCH, &[])
        .set(epoch_seq as i64);
    registry.gauge(names::CLUSTER_PHI, &[]).set(phi_millis);
    let counter = registry.counter(names::CLUSTER_GOSSIP_ROUNDS, &[]);
    let done = counter.get();
    if rounds > done {
        counter.add(rounds - done);
    }
}
