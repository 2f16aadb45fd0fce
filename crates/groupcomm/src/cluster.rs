//! The deterministic in-process cluster: transport, membership engine,
//! and protocol orchestration.
//!
//! Messages are queued in a single FIFO and processed by explicit
//! [`Cluster::pump`] calls, so every interleaving is reproducible; a
//! bounded pump budget lets a driver interleave its own steps with
//! message processing.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::Addr;
use crate::channel::{ChannelEvent, GroupChannel, SendError};
use crate::config::{OrderingMode, StackConfig};
use crate::member::MemberCore;
use crate::protocols::gms;
use crate::protocols::primary;
use crate::view::View;
use crate::wire::Wire;

struct Envelope {
    from: Addr,
    to: Addr,
    wire: Wire,
}

struct Node {
    alive: bool,
    config: StackConfig,
    group: Option<String>,
    /// The transport-agnostic protocol engine (sequencer/bimodal/view).
    member: MemberCore,
    partition_side: u32,
}

impl Node {
    fn new(addr: Addr, config: StackConfig) -> Node {
        let member = MemberCore::new(addr, config.ordering.clone());
        Node {
            alive: true,
            config,
            group: None,
            member,
            partition_side: 0,
        }
    }
}

#[derive(Default)]
struct Group {
    /// Every currently joined member, in join order.
    join_order: Vec<Addr>,
    /// Highest view sequence issued for this group (monotonic across
    /// partitions).
    last_seq: u64,
    /// Coordinator of the last view installed while the group was whole —
    /// the lineage PRIMARY_PARTITION prefers.
    last_whole_coord: Option<Addr>,
}

struct Core {
    next_addr: u64,
    rng: StdRng,
    nodes: HashMap<Addr, Node>,
    groups: HashMap<String, Group>,
    in_flight: VecDeque<Envelope>,
}

/// The cluster handle (cheaply cloneable).
///
/// ```
/// use groupcast::{ChannelEvent, Cluster, StackConfig};
///
/// let cluster = Cluster::new(1);
/// let a = cluster.create_channel(StackConfig::default());
/// let b = cluster.create_channel(StackConfig::default());
/// a.connect("demo").unwrap();
/// cluster.pump_all();
/// b.connect("demo").unwrap();
/// cluster.pump_all();
/// b.poll(); // drain join events
///
/// a.mcast(b"hello".to_vec()).unwrap();
/// cluster.pump_all();
/// assert!(b
///     .poll()
///     .iter()
///     .any(|e| matches!(e, ChannelEvent::Message { bytes, .. } if bytes == b"hello")));
/// ```
#[derive(Clone)]
pub struct Cluster {
    core: Arc<Mutex<Core>>,
}

impl Cluster {
    pub fn new(seed: u64) -> Self {
        Cluster {
            core: Arc::new(Mutex::new(Core {
                next_addr: 1,
                rng: StdRng::seed_from_u64(seed),
                nodes: HashMap::new(),
                groups: HashMap::new(),
                in_flight: VecDeque::new(),
            })),
        }
    }

    /// Create a channel endpoint with the given stack configuration.
    pub fn create_channel(&self, config: StackConfig) -> GroupChannel {
        let mut core = self.core.lock();
        let addr = Addr(core.next_addr);
        core.next_addr += 1;
        core.nodes.insert(addr, Node::new(addr, config));
        GroupChannel {
            cluster: self.clone(),
            addr,
        }
    }

    // ------------------------------------------------------------------
    // Channel-facing operations
    // ------------------------------------------------------------------

    pub(crate) fn connect(&self, addr: Addr, group: &str) -> Result<(), SendError> {
        let mut core = self.core.lock();
        let node = core.nodes.get_mut(&addr).ok_or(SendError::Dead)?;
        if !node.alive {
            return Err(SendError::Dead);
        }
        node.group = Some(group.to_string());
        let g = core.groups.entry(group.to_string()).or_default();
        if !g.join_order.contains(&addr) {
            g.join_order.push(addr);
        }
        Self::recompute_group(&mut core, group);
        Ok(())
    }

    pub(crate) fn disconnect(&self, addr: Addr) {
        let mut core = self.core.lock();
        let Some(node) = core.nodes.get_mut(&addr) else {
            return;
        };
        let Some(group) = node.group.take() else {
            return;
        };
        node.member.clear_view();
        if let Some(g) = core.groups.get_mut(&group) {
            g.join_order.retain(|a| *a != addr);
        }
        Self::recompute_group(&mut core, &group);
    }

    pub(crate) fn mcast(&self, addr: Addr, bytes: Vec<u8>) -> Result<(), SendError> {
        let mut core = self.core.lock();
        let node = core.nodes.get(&addr).ok_or(SendError::Dead)?;
        if !node.alive {
            return Err(SendError::Dead);
        }
        let ordering = node.config.ordering.clone();
        let outgoing = core
            .nodes
            .get_mut(&addr)
            .expect("checked above")
            .member
            .mcast(bytes)?;
        match ordering {
            OrderingMode::Sequencer => {
                // Forward to the coordinator (possibly myself) for stamping.
                for out in outgoing {
                    Self::enqueue(&mut core, addr, out.to, out.wire);
                }
            }
            OrderingMode::Bimodal { loss, .. } => {
                // The core proposes the full fan-out; the transport is
                // where the initial multicast loses packets.
                for out in outgoing {
                    let lossy = out.to != addr && core.rng.gen::<f64>() < loss;
                    if lossy {
                        continue; // initial multicast dropped; gossip repairs
                    }
                    Self::enqueue(&mut core, addr, out.to, out.wire);
                }
            }
        }
        Ok(())
    }

    pub(crate) fn poll(&self, addr: Addr) -> Vec<ChannelEvent> {
        let mut core = self.core.lock();
        core.nodes
            .get_mut(&addr)
            .map(|n| n.member.take_events())
            .unwrap_or_default()
    }

    pub(crate) fn provide_state(
        &self,
        from: Addr,
        to: Addr,
        bytes: Vec<u8>,
    ) -> Result<(), SendError> {
        let mut core = self.core.lock();
        let node = core.nodes.get(&from).ok_or(SendError::Dead)?;
        if !node.alive {
            return Err(SendError::Dead);
        }
        Self::enqueue(&mut core, from, to, Wire::State { bytes });
        Ok(())
    }

    pub(crate) fn view_of(&self, addr: Addr) -> Option<View> {
        self.core
            .lock()
            .nodes
            .get(&addr)
            .and_then(|n| n.member.view().cloned())
    }

    pub(crate) fn is_alive(&self, addr: Addr) -> bool {
        self.core.lock().nodes.get(&addr).is_some_and(|n| n.alive)
    }

    // ------------------------------------------------------------------
    // Fault injection & membership maintenance
    // ------------------------------------------------------------------

    /// Kill a member outright (process crash).
    pub fn crash(&self, addr: Addr) {
        let mut core = self.core.lock();
        let Some(node) = core.nodes.get_mut(&addr) else {
            return;
        };
        if !node.alive {
            return;
        }
        node.alive = false;
        node.member.push_event(ChannelEvent::Crashed {
            reason: "crashed by fault injection".to_string(),
        });
        node.member.clear_view();
        // Its queued messages evaporate with the process.
        core.in_flight.retain(|e| e.to != addr);
        // It no longer participates in its group.
        if let Some(group) = core.nodes.get(&addr).and_then(|n| n.group.clone()) {
            if let Some(g) = core.groups.get_mut(&group) {
                g.join_order.retain(|a| *a != addr);
            }
            Self::recompute_group(&mut core, &group);
        }
    }

    /// Partition the cluster: each listed set becomes an isolated side;
    /// unlisted members form side 0. Call [`Cluster::detect_failures`] to
    /// let membership react.
    pub fn partition(&self, sides: &[&[Addr]]) {
        let mut core = self.core.lock();
        for node in core.nodes.values_mut() {
            node.partition_side = 0;
        }
        for (i, side) in sides.iter().enumerate() {
            for addr in *side {
                if let Some(n) = core.nodes.get_mut(addr) {
                    n.partition_side = (i + 1) as u32;
                }
            }
        }
    }

    /// Heal all partitions. Call [`Cluster::detect_failures`] afterwards to
    /// trigger the merge (and PRIMARY_PARTITION resolution).
    pub fn heal(&self) {
        let mut core = self.core.lock();
        for node in core.nodes.values_mut() {
            node.partition_side = 0;
        }
    }

    /// Run the failure detector + membership engine: every group's views
    /// are reconciled with current liveness and partition sides. This is
    /// where crashes shrink views, joins after heal merge views, and the
    /// PRIMARY_PARTITION winner is chosen.
    pub fn detect_failures(&self) {
        let mut core = self.core.lock();
        let groups: Vec<String> = core.groups.keys().cloned().collect();
        for g in groups {
            Self::recompute_group(&mut core, &g);
        }
    }

    /// One anti-entropy round: every live bimodal member pushes its digest
    /// to `fanout` random reachable peers; receivers answer with
    /// retransmissions.
    pub fn gossip_round(&self) {
        let mut core = self.core.lock();
        let members: Vec<(Addr, Vec<Addr>, usize)> = core
            .nodes
            .iter()
            .filter_map(|(addr, n)| {
                if !n.alive {
                    return None;
                }
                let OrderingMode::Bimodal { fanout, .. } = n.config.ordering else {
                    return None;
                };
                let view = n.member.view()?;
                let peers: Vec<Addr> = view
                    .members
                    .iter()
                    .copied()
                    .filter(|m| *m != *addr)
                    .collect();
                Some((*addr, peers, fanout))
            })
            .collect();
        for (addr, mut peers, fanout) in members {
            // Deterministic Fisher-Yates prefix shuffle for peer choice.
            for i in 0..peers.len().min(fanout) {
                let j = core.rng.gen_range(i..peers.len());
                peers.swap(i, j);
            }
            let digest = core
                .nodes
                .get(&addr)
                .map(|n| n.member.digest())
                .unwrap_or_default();
            for peer in peers.into_iter().take(fanout) {
                Self::enqueue(
                    &mut core,
                    addr,
                    peer,
                    Wire::DigestPush {
                        entries: digest.clone(),
                    },
                );
            }
        }
    }

    /// The STABLE protocol: compute, per group side, the minimum delivered
    /// digest across members and let everyone prune retained messages the
    /// whole side already has.
    pub fn stable_round(&self) {
        let mut core = self.core.lock();
        let groups: Vec<String> = core.groups.keys().cloned().collect();
        for g in groups {
            let member_addrs: Vec<Addr> = core.groups[&g].join_order.clone();
            // Group by partition side.
            let mut by_side: HashMap<u32, Vec<Addr>> = HashMap::new();
            for a in member_addrs {
                if let Some(n) = core.nodes.get(&a) {
                    if n.alive {
                        by_side.entry(n.partition_side).or_default().push(a);
                    }
                }
            }
            for side in by_side.values() {
                // min contiguous digest across the side.
                let mut min: HashMap<Addr, u64> = HashMap::new();
                let mut first = true;
                for a in side {
                    let digest: HashMap<Addr, u64> =
                        core.nodes[a].member.digest().into_iter().collect();
                    if first {
                        min = digest;
                        first = false;
                    } else {
                        min.retain(|origin, v| match digest.get(origin) {
                            Some(&other) => {
                                *v = (*v).min(other);
                                true
                            }
                            None => false,
                        });
                    }
                }
                let stable: Vec<(Addr, u64)> = min.into_iter().collect();
                for a in side {
                    if let Some(n) = core.nodes.get_mut(a) {
                        n.member.prune(&stable);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Pumping
    // ------------------------------------------------------------------

    /// Process up to `budget` queued messages (`None` = drain everything
    /// currently queued *and* everything they generate). Returns the
    /// number processed.
    pub fn pump(&self, budget: Option<usize>) -> usize {
        let mut processed = 0;
        loop {
            if budget.is_some_and(|b| processed >= b) {
                return processed;
            }
            let mut core = self.core.lock();
            let Some(env) = core.in_flight.pop_front() else {
                return processed;
            };
            Self::process(&mut core, env);
            processed += 1;
        }
    }

    /// Drain the queue completely.
    pub fn pump_all(&self) -> usize {
        self.pump(None)
    }

    /// Messages currently queued.
    pub fn in_flight(&self) -> usize {
        self.core.lock().in_flight.len()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn reachable(core: &Core, a: Addr, b: Addr) -> bool {
        match (core.nodes.get(&a), core.nodes.get(&b)) {
            (Some(x), Some(y)) => x.alive && y.alive && x.partition_side == y.partition_side,
            _ => false,
        }
    }

    /// Queue a message.
    fn enqueue(core: &mut Core, from: Addr, to: Addr, wire: Wire) {
        if !Self::reachable(core, from, to) {
            // Silently dropped, like a packet into a partition.
            return;
        }
        core.in_flight.push_back(Envelope { from, to, wire });
    }

    fn process(core: &mut Core, env: Envelope) {
        if !Self::reachable(core, env.from, env.to) {
            return;
        }
        let to = env.to;
        // The per-member protocol engine does all the thinking; we carry
        // its follow-up sends (re-forwards, Ordered fan-out, retransmits).
        let outgoing = match core.nodes.get_mut(&to) {
            Some(n) => n.member.on_wire(env.from, env.wire),
            None => return,
        };
        for out in outgoing {
            Self::enqueue(core, to, out.to, out.wire);
        }
    }

    fn install_view(core: &mut Core, at: Addr, view: View) {
        let Some(node) = core.nodes.get_mut(&at) else {
            return;
        };
        if !node.alive {
            return;
        }
        node.member.install_view(view);
    }

    /// Reconcile the views of one group with liveness and partitions.
    fn recompute_group(core: &mut Core, group: &str) {
        let Some(g) = core.groups.get(group) else {
            return;
        };
        let join_order = g.join_order.clone();
        let last_whole_coord = g.last_whole_coord;

        // Live, connected members by partition side.
        let mut sides: HashMap<u32, Vec<Addr>> = HashMap::new();
        for a in &join_order {
            if let Some(n) = core.nodes.get(a) {
                if n.alive && n.group.as_deref() == Some(group) {
                    sides.entry(n.partition_side).or_default().push(*a);
                }
            }
        }

        let whole = sides.len() == 1;
        let mut side_keys: Vec<u32> = sides.keys().copied().collect();
        side_keys.sort();

        for key in side_keys {
            let members = &sides[&key];
            // Current views held on this side, deduped by id, with dead
            // members pruned.
            let mut prev_views: Vec<View> = Vec::new();
            for a in members {
                if let Some(v) = core.nodes.get(a).and_then(|n| n.member.view().cloned()) {
                    if !prev_views.iter().any(|p| p.id == v.id) {
                        prev_views.push(v);
                    }
                }
            }
            for v in &mut prev_views {
                v.members.retain(|m| members.contains(m));
            }
            prev_views.retain(|v| !v.members.is_empty());

            // Desired membership.
            let desired: Vec<Addr> = if prev_views.len() > 1 {
                // Merge: PRIMARY_PARTITION picks the winner lineage.
                let anchor = last_whole_coord.unwrap_or(prev_views[0].coordinator());
                let w = primary::pick_winner(&prev_views, anchor);
                let winner = prev_views[w].clone();
                let losers: Vec<&View> = prev_views
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != w)
                    .map(|(_, v)| v)
                    .collect();
                let mut merged = gms::merged_view(&winner, &losers).members;
                for a in members {
                    if !merged.contains(a) {
                        merged.push(*a); // brand-new joiners go last
                    }
                }
                merged
            } else if let Some(p) = prev_views.first() {
                let mut m = p.members.clone();
                for a in members {
                    if !m.contains(a) {
                        m.push(*a);
                    }
                }
                m
            } else {
                members.clone()
            };

            // Skip if every member already holds exactly this membership.
            let converged = members.iter().all(|a| {
                core.nodes
                    .get(a)
                    .and_then(|n| n.member.view())
                    .is_some_and(|v| v.members == desired)
            });
            if converged {
                if whole {
                    if let Some(gm) = core.groups.get_mut(group) {
                        gm.last_whole_coord = Some(desired[0]);
                    }
                }
                continue;
            }

            let seq = {
                let gm = core.groups.get_mut(group).expect("group exists");
                gm.last_seq += 1;
                gm.last_seq
            };
            let view = View::new(seq, desired);
            if whole {
                if let Some(gm) = core.groups.get_mut(group) {
                    gm.last_whole_coord = Some(view.coordinator());
                }
            }
            // Install directly at each member (view installation is the
            // GMS's own reliable channel).
            for m in view.members.clone() {
                Self::install_view(core, m, view.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_cluster(n: usize) -> (Cluster, Vec<GroupChannel>) {
        let cluster = Cluster::new(7);
        let chans: Vec<GroupChannel> = (0..n)
            .map(|_| cluster.create_channel(StackConfig::default()))
            .collect();
        for c in &chans {
            c.connect("g").unwrap();
            cluster.pump_all();
        }
        // Drain join-time events.
        for c in &chans {
            c.poll();
        }
        (cluster, chans)
    }

    fn messages(events: &[ChannelEvent]) -> Vec<Vec<u8>> {
        events
            .iter()
            .filter_map(|e| match e {
                ChannelEvent::Message { bytes, .. } => Some(bytes.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn members_see_each_other_in_view() {
        let (_cluster, chans) = seq_cluster(3);
        for c in &chans {
            let v = c.view().unwrap();
            assert_eq!(v.size(), 3);
            assert_eq!(v.coordinator(), chans[0].addr());
        }
    }

    #[test]
    fn sequencer_total_order() {
        let (cluster, chans) = seq_cluster(3);
        // Two concurrent senders.
        chans[1].mcast(vec![1]).unwrap();
        chans[2].mcast(vec![2]).unwrap();
        cluster.pump_all();
        let orders: Vec<Vec<Vec<u8>>> = chans.iter().map(|c| messages(&c.poll())).collect();
        assert_eq!(orders[0].len(), 2);
        assert_eq!(orders[0], orders[1], "identical delivery order everywhere");
        assert_eq!(orders[1], orders[2]);
    }

    #[test]
    fn join_triggers_state_transfer() {
        let cluster = Cluster::new(1);
        let a = cluster.create_channel(StackConfig::default());
        a.connect("g").unwrap();
        cluster.pump_all();
        a.poll();

        let b = cluster.create_channel(StackConfig::default());
        b.connect("g").unwrap();
        cluster.pump_all();

        // Coordinator got the StateRequest.
        let evs = a.poll();
        let joiner = evs.iter().find_map(|e| match e {
            ChannelEvent::StateRequest { joiner } => Some(*joiner),
            _ => None,
        });
        assert_eq!(joiner, Some(b.addr()));

        a.provide_state(b.addr(), vec![42]).unwrap();
        cluster.pump_all();
        let evs = b.poll();
        assert!(evs
            .iter()
            .any(|e| matches!(e, ChannelEvent::SetState { bytes } if bytes == &vec![42])));
    }

    #[test]
    fn crash_shrinks_view_and_rotates_coordinator() {
        let (cluster, chans) = seq_cluster(3);
        cluster.crash(chans[0].addr());
        cluster.detect_failures();
        cluster.pump_all();
        let v = chans[1].view().unwrap();
        assert_eq!(v.size(), 2);
        assert_eq!(v.coordinator(), chans[1].addr(), "next-oldest coordinates");
        // Group still works.
        chans[2].mcast(vec![9]).unwrap();
        cluster.pump_all();
        assert_eq!(messages(&chans[1].poll()).len(), 1);
    }

    #[test]
    fn partition_splits_views_and_merge_resyncs() {
        let (cluster, chans) = seq_cluster(3);
        let (a, b, c) = (chans[0].addr(), chans[1].addr(), chans[2].addr());
        cluster.partition(&[&[a], &[b, c]]);
        cluster.detect_failures();
        cluster.pump_all();

        assert_eq!(chans[0].view().unwrap().members, vec![a]);
        let side2 = chans[1].view().unwrap();
        assert_eq!(side2.members, vec![b, c]);
        assert_eq!(side2.coordinator(), b);

        // Heal: PRIMARY_PARTITION — the side holding the pre-partition
        // coordinator (a) wins; b/c must resync.
        cluster.heal();
        cluster.detect_failures();
        cluster.pump_all();

        let merged = chans[0].view().unwrap();
        assert_eq!(merged.coordinator(), a);
        assert_eq!(merged.size(), 3);

        let evs_b = chans[1].poll();
        assert!(
            evs_b.iter().any(
                |e| matches!(e, ChannelEvent::ResyncNeeded { coordinator } if *coordinator == a)
            ),
            "loser side told to resync: {evs_b:?}"
        );
        // Winner coordinator asked to provide state for the losers.
        let evs_a = chans[0].poll();
        let requests: Vec<Addr> = evs_a
            .iter()
            .filter_map(|e| match e {
                ChannelEvent::StateRequest { joiner } => Some(*joiner),
                _ => None,
            })
            .collect();
        assert!(requests.contains(&b) && requests.contains(&c));
    }

    #[test]
    fn primary_partition_prefers_lineage_over_size() {
        let (cluster, chans) = seq_cluster(3);
        let (a, b, c) = (chans[0].addr(), chans[1].addr(), chans[2].addr());
        // Old coordinator a isolated alone; bigger side is {b,c}.
        cluster.partition(&[&[a], &[b, c]]);
        cluster.detect_failures();
        cluster.pump_all();
        cluster.heal();
        cluster.detect_failures();
        cluster.pump_all();
        let v = chans[2].view().unwrap();
        assert_eq!(v.coordinator(), a, "lineage wins despite smaller side");
    }

    #[test]
    fn bimodal_delivers_with_loss_after_gossip() {
        let cluster = Cluster::new(3);
        let config = StackConfig {
            ordering: OrderingMode::Bimodal {
                loss: 0.4,
                fanout: 2,
            },
        };
        let chans: Vec<GroupChannel> = (0..3)
            .map(|_| cluster.create_channel(config.clone()))
            .collect();
        for c in &chans {
            c.connect("g").unwrap();
            cluster.pump_all();
        }
        for c in &chans {
            c.poll();
        }
        for i in 0..20u8 {
            chans[0].mcast(vec![i]).unwrap();
        }
        cluster.pump_all();
        // Repair until everyone has everything.
        for _ in 0..10 {
            cluster.gossip_round();
            cluster.pump_all();
        }
        for c in &chans[1..] {
            let got = messages(&c.poll());
            assert_eq!(got.len(), 20, "all messages after repair");
            let expect: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i]).collect();
            assert_eq!(got, expect, "per-sender FIFO preserved");
        }
    }

    #[test]
    fn stable_round_prunes_retained_messages() {
        let cluster = Cluster::new(3);
        let config = StackConfig {
            ordering: OrderingMode::Bimodal {
                loss: 0.0,
                fanout: 1,
            },
        };
        let a = cluster.create_channel(config.clone());
        let b = cluster.create_channel(config);
        a.connect("g").unwrap();
        cluster.pump_all();
        b.connect("g").unwrap();
        cluster.pump_all();
        a.mcast(vec![0; 64]).unwrap();
        cluster.pump_all();
        cluster.stable_round();
        // Everything delivered everywhere → retained stores empty.
        let core = cluster.core.lock();
        for n in core.nodes.values() {
            assert_eq!(n.member.retained_count(), 0);
        }
    }

    #[test]
    fn disconnect_leaves_group() {
        let (cluster, chans) = seq_cluster(2);
        chans[1].disconnect();
        cluster.pump_all();
        assert_eq!(chans[0].view().unwrap().members, vec![chans[0].addr()]);
        assert!(chans[1].view().is_none());
        assert_eq!(chans[1].mcast(vec![1]), Err(SendError::NotConnected));
    }

    #[test]
    fn gossip_with_fanout_exceeding_peers() {
        let cluster = Cluster::new(8);
        let config = StackConfig {
            ordering: OrderingMode::Bimodal {
                loss: 0.5,
                fanout: 10, // more than the single peer available
            },
        };
        let a = cluster.create_channel(config.clone());
        let b = cluster.create_channel(config);
        a.connect("g").unwrap();
        cluster.pump_all();
        b.connect("g").unwrap();
        cluster.pump_all();
        a.poll();
        b.poll();
        for i in 0..10u8 {
            a.mcast(vec![i]).unwrap();
        }
        cluster.pump_all();
        for _ in 0..10 {
            cluster.gossip_round();
            cluster.pump_all();
        }
        let got: Vec<ChannelEvent> = b.poll();
        let msgs = got
            .iter()
            .filter(|e| matches!(e, ChannelEvent::Message { .. }))
            .count();
        assert_eq!(msgs, 10, "fanout clamp still repairs everything");
    }

    #[test]
    fn dead_member_operations_fail_cleanly() {
        let (cluster, chans) = seq_cluster(2);
        let victim = chans[1].addr();
        cluster.crash(victim);
        assert_eq!(chans[1].mcast(vec![1]), Err(SendError::Dead));
        assert_eq!(chans[1].connect("other"), Err(SendError::Dead));
        assert_eq!(
            chans[1].provide_state(chans[0].addr(), vec![]),
            Err(SendError::Dead)
        );
        assert!(!chans[1].is_alive());
        // The survivor is unaffected.
        cluster.detect_failures();
        cluster.pump_all();
        assert!(chans[0].mcast(vec![2]).is_ok());
    }

    #[test]
    fn single_member_group_self_delivers() {
        let cluster = Cluster::new(2);
        let solo = cluster.create_channel(StackConfig::default());
        solo.connect("lonely").unwrap();
        cluster.pump_all();
        solo.poll();
        solo.mcast(vec![7]).unwrap();
        cluster.pump_all();
        let msgs = messages(&solo.poll());
        assert_eq!(msgs, vec![vec![7]], "total order includes self-delivery");
    }

    #[test]
    fn two_groups_are_isolated() {
        let cluster = Cluster::new(3);
        let a = cluster.create_channel(StackConfig::default());
        let b = cluster.create_channel(StackConfig::default());
        a.connect("red").unwrap();
        cluster.pump_all();
        b.connect("blue").unwrap();
        cluster.pump_all();
        a.poll();
        b.poll();
        a.mcast(vec![1]).unwrap();
        cluster.pump_all();
        assert_eq!(messages(&a.poll()).len(), 1);
        assert!(messages(&b.poll()).is_empty(), "no cross-group leakage");
        assert_eq!(a.view().unwrap().size(), 1);
        assert_eq!(b.view().unwrap().size(), 1);
    }

    #[test]
    fn restart_rejoins_with_fresh_address() {
        let (cluster, chans) = seq_cluster(2);
        let dead = chans[1].addr();
        cluster.crash(dead);
        cluster.detect_failures();
        cluster.pump_all();
        chans[0].poll();

        // "Restart": a new channel (new incarnation) joins.
        let revived = cluster.create_channel(StackConfig::default());
        revived.connect("g").unwrap();
        cluster.pump_all();
        assert_ne!(revived.addr(), dead);
        let v = revived.view().unwrap();
        assert_eq!(v.size(), 2);
        // Coordinator offers state to the rejoiner.
        let evs = chans[0].poll();
        assert!(evs.iter().any(
            |e| matches!(e, ChannelEvent::StateRequest { joiner } if *joiner == revived.addr())
        ));
    }
}
