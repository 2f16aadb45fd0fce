//! The production cluster logic with no sockets, threads or wall clock.
//!
//! Three nodes' real [`NodeState`](rndi_cluster::NodeState) and
//! `HdnsNode<TcpChannel>` — the code `ClusterNode`'s pacer and gossip
//! handler drive over TCP — are driven here by a loop that plays both:
//! it asks each node for its round plan, hands the frames to the target's
//! `handle` in memory, hands the replies back, pumps the replica and
//! advances a manual clock by one gossip interval. Nothing sleeps, nothing
//! races, and a seed replays a run exactly.
//!
//! The network is lossy where the protocol claims to tolerate loss: every
//! membership frame — a Sync, its reply, a (re-asserted) `InstallView` —
//! is dropped with p = 0.1, independently, from the seed. Replication
//! frames (`Forward`, `Ordered`, `State`) arrive, as on the TCP connection
//! that carries them: the sequencer has no retransmission, so a member
//! that misses an `Ordered` waits for the next view (ROADMAP item 4b).
//!
//! Beside the lossy run, the races `tests/cluster_membership.rs` used to
//! find by luck over real sockets are staged here link by link and step by
//! step, each failing without the rule that closes it.

use groupcast::Wire;
use hdns::{HdnsEntry, Op, RealmError};
use rndi_cluster::{ClusterConfig, GossipEngine, MembershipTable, NodeReplica};
use rndi_core::env::{keys, Environment};
use rndi_net::proto::{GossipRequest, MemberEntry, MemberState};
use rndi_obs::metrics::Registry;

const NODES: usize = 3;
const INTERVAL_MS: u64 = 10;
const DROP_P: f64 = 0.1;

fn endpoint(i: usize) -> String {
    format!("mem:{i}")
}

struct Net {
    nodes: Vec<NodeReplica>,
    now_ms: u64,
    rng: u64,
    /// Chance that a membership frame is lost.
    drop_p: f64,
    /// Severed links (unordered pairs): neither end hears the other.
    cut: Vec<(usize, usize)>,
    /// The highest view seq each node has installed so far.
    seqs: [u64; NODES],
}

impl Net {
    /// Node 0 founds the group, the others are pointed at it.
    fn boot(seed: u64) -> Net {
        let registry = Registry::new();
        let nodes = (0..NODES)
            .map(|i| {
                let mut env = Environment::new()
                    .with(keys::CLUSTER_GOSSIP_INTERVAL_MS, INTERVAL_MS.to_string())
                    .with(keys::CLUSTER_QUARANTINE_MS, "400");
                if i > 0 {
                    env = env.with(keys::CLUSTER_SEED, endpoint(0));
                }
                let config = ClusterConfig::from_env(format!("node-{i}"), "mem", &env).unwrap();
                let node = NodeReplica::new(&config, &registry);
                node.open(&endpoint(i)).unwrap();
                node
            })
            .collect();
        Net {
            nodes,
            now_ms: 0,
            rng: seed,
            drop_p: DROP_P,
            cut: Vec::new(),
            seqs: [0; NODES],
        }
    }

    /// splitmix64 → [0, 1).
    fn chance(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn lost(&mut self) -> bool {
        self.chance() < self.drop_p
    }

    fn linked(&self, i: usize, j: usize) -> bool {
        !self.cut.contains(&(i.min(j), i.max(j)))
    }

    /// What `pace()` does each interval, for every node in turn.
    fn round(&mut self) {
        for i in 0..NODES {
            self.carry(i);
            self.nodes[i].hdns.lock().process();
        }
        self.tick();
    }

    /// The I/O half of node `i`'s pacer round: plan, exchange, flush.
    fn carry(&mut self, i: usize) {
        let now = self.now_ms;
        let plan = self.nodes[i].state.lock().plan_round(now);
        for (peer, ep) in &plan.targets {
            let j: usize = ep["mem:".len()..].parse().unwrap();
            if !self.linked(i, j) || self.lost() {
                continue; // the exchange failed: a missed heartbeat
            }
            let reply = self.nodes[j].state.lock().handle(plan.sync.clone(), now);
            if !self.lost() {
                let mut state = self.nodes[i].state.lock();
                state.absorb(peer.as_deref(), ep, &reply, now);
            }
        }
        for (ep, frame) in plan.wires {
            let j: usize = ep["mem:".len()..].parse().unwrap();
            let GossipRequest::Group { wire, .. } = &frame else {
                unreachable!("the outbox holds Group frames only")
            };
            let membership = matches!(Wire::decode(wire), Ok(Wire::InstallView(_)));
            if !self.linked(i, j) || (membership && self.lost()) {
                continue;
            }
            self.nodes[j].state.lock().handle(frame, now);
        }
    }

    /// One gossip interval passes; the lineage invariants are checked.
    fn tick(&mut self) {
        self.now_ms += INTERVAL_MS;
        let views: Vec<_> = (0..NODES)
            .map(|i| self.nodes[i].state.lock().view())
            .collect();
        for (i, view) in views.iter().enumerate() {
            let seq = view.as_ref().map_or(0, |v| v.seq);
            assert!(
                seq >= self.seqs[i],
                "node-{i}'s view went {} -> {seq}",
                self.seqs[i]
            );
            self.seqs[i] = seq;
            // One lineage: a seq is minted once, by one coordinator.
            for other in views[..i].iter().flatten().filter(|o| o.seq == seq) {
                assert_eq!(Some(other), view.as_ref(), "two views at seq {seq}");
            }
        }
    }

    fn run_until(&mut self, what: &str, mut cond: impl FnMut(&Net) -> bool) {
        for _ in 0..1_000 {
            if cond(self) {
                return;
            }
            self.round();
        }
        panic!("{what}: not within 1000 rounds ({} ms)", self.now_ms);
    }

    fn members(&self, i: usize) -> Vec<String> {
        let view = self.nodes[i].state.lock().view();
        view.map(|v| v.members).unwrap_or_default()
    }

    /// `nodes` hold one view of exactly themselves, believe each other
    /// alive and accept writes.
    fn converged(&self, nodes: &[usize]) -> bool {
        let reference = self.members(nodes[0]);
        reference.len() == nodes.len()
            && nodes.iter().all(|&i| {
                let state = self.nodes[i].state.lock();
                let alive = |name: &String| {
                    state
                        .members()
                        .iter()
                        .any(|m| m.name == *name && m.state == MemberState::Alive)
                };
                state.view().is_some_and(|v| v.members == reference)
                    && reference.iter().all(alive)
                    && state.writes_allowed()
            })
    }

    /// A client's write through node `i`: the gate, the submit and the wait
    /// are the node's own; only the pump is ours.
    fn write(&mut self, i: usize, path: &str) -> Result<(), RealmError> {
        let node = self.nodes[i].clone();
        let op = Op::Bind {
            path: path.to_string(),
            entry: HdnsEntry::leaf(path.as_bytes().to_vec()),
            overwrite: true,
        };
        let mut rounds_left = 50;
        node.write(op, || {
            self.round();
            rounds_left -= 1;
            rounds_left > 0
        })
    }

    fn holds(&self, i: usize, path: &str) -> bool {
        self.nodes[i].hdns.lock().lookup(path).is_some()
    }
}

fn boot_partition_heal(seed: u64) {
    let mut net = Net::boot(seed);
    let mut acked = Vec::new();
    let mut ack = |net: &mut Net, i: usize, path: &str| {
        net.write(i, path)
            .unwrap_or_else(|e| panic!("{path} via node-{i}: {e}"));
        acked.push(path.to_string());
    };

    net.run_until("boot from the seed", |n| n.converged(&[0, 1, 2]));
    ack(&mut net, 0, "before-at-coordinator");
    ack(&mut net, 2, "before-at-member");

    // The harder cut: the coordinator ends up alone.
    net.cut = vec![(0, 1), (0, 2)];
    net.run_until("the majority re-forms, the minority refuses", |n| {
        n.converged(&[1, 2]) && !n.nodes[0].state.lock().writes_allowed()
    });
    assert_eq!(
        net.write(0, "during-at-minority"),
        Err(RealmError::NotPrimary)
    );
    ack(&mut net, 1, "during-at-coordinator");
    ack(&mut net, 2, "during-at-member");

    net.cut.clear();
    net.run_until("one lineage after the heal", |n| n.converged(&[0, 1, 2]));
    ack(&mut net, 0, "after-at-rejoined");
    net.run_until("every replica holds every acknowledged write", |n| {
        (0..NODES).all(|i| acked.iter().all(|path| n.holds(i, path)))
    });
    let lineage = net.members(0);
    for i in 0..NODES {
        assert_eq!(net.members(i), lineage);
        assert_eq!(net.seqs[i], net.seqs[0], "one view, one seq");
        assert!(
            !net.holds(i, "during-at-minority"),
            "refused write on node-{i}"
        );
    }
}

/// The heal-order race, staged: a minority heals back in still holding the
/// majority's members Dead, and reaches one of them while that member and
/// its coordinator miss each other for a few rounds — far too few to
/// suspect anybody. Adopting the rumour would make that member the
/// candidate, and with the healed node's vote it would mint a rival view.
#[test]
fn a_healing_minoritys_death_rumour_does_not_unseat_the_coordinator() {
    let mut net = Net::boot(0);
    net.drop_p = 0.0;
    net.run_until("boot from the seed", |n| n.converged(&[0, 1, 2]));
    net.cut = vec![(0, 1), (0, 2)];
    net.run_until("the majority re-forms", |n| n.converged(&[1, 2]));
    // Every quarantine bar lapses: only the protocol's rules are left
    // between a rumour and a view.
    for _ in 0..60 {
        net.round();
    }
    let lineage = net.members(2);
    assert_eq!(lineage, ["node-1", "node-2"]);

    net.cut = vec![(0, 1), (1, 2)];
    for _ in 0..12 {
        net.round();
        assert_eq!(net.members(2), lineage, "node-2 left its coordinator");
    }
    let beliefs = net.nodes[2].state.lock().members();
    let alive = |name: &str| {
        beliefs
            .iter()
            .any(|m| m.name == name && m.state == MemberState::Alive)
    };
    assert!(alive("node-0"), "node-0 did get through to node-2");
    assert!(alive("node-1"), "a rumour outweighed heartbeats");

    net.cut.clear();
    net.run_until("one lineage after the heal", |n| n.converged(&[0, 1, 2]));
    assert_eq!(net.members(0), ["node-1", "node-2", "node-0"]);
}

#[test]
fn three_nodes_boot_split_and_heal_under_membership_frame_loss() {
    for seed in 0..64 {
        if let Err(panic) = std::panic::catch_unwind(|| boot_partition_heal(seed)) {
            eprintln!("no_sockets: failing seed = {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A write at the coordinator in the instant after it admitted a joiner:
/// the joiner has the view, the coordinator's replica has not yet come round
/// to answering its state request. The snapshot must not be queued behind
/// the write's `Ordered` copy, or the joiner applies the write and then
/// installs a snapshot taken before it.
#[test]
fn a_write_right_behind_a_view_does_not_overtake_the_joiners_snapshot() {
    let mut net = Net::boot(0);
    net.drop_p = 0.0;
    loop {
        net.carry(0);
        if net.members(1).len() > 1 {
            break; // node-1 just installed the view admitting it
        }
        net.nodes[0].hdns.lock().process();
        for i in 1..NODES {
            net.carry(i);
            net.nodes[i].hdns.lock().process();
        }
        net.tick();
    }
    net.write(0, "right-behind-the-view").unwrap();
    net.run_until("boot from the seed", |n| n.converged(&[0, 1, 2]));
    net.round();
    for i in 0..NODES {
        assert!(net.holds(i, "right-behind-the-view"), "lost on node-{i}");
    }
}

/// The rule the staged heal above leans on, by itself: heartbeats outweigh
/// a third party's verdict, silence lets it in.
#[test]
fn a_verdict_on_a_peer_still_heard_waits_for_silence() {
    let entry = |name: &str, state| MemberEntry {
        name: name.to_string(),
        endpoint: format!("{name}:1"),
        incarnation: 1,
        state,
    };
    let table = MembershipTable::new("a", "a:1", 400);
    let mut a = GossipEngine::new(table, 8.0, INTERVAL_MS);
    for round in 0..5 {
        let b = entry("b", MemberState::Alive);
        a.handle_sync(&b, &[], None, round * INTERVAL_MS);
    }
    let state_of_b = |a: &GossipEngine| a.table.get("b").unwrap().state;
    let rumour = [entry("b", MemberState::Dead)];

    a.handle_sync(&entry("c", MemberState::Alive), &rumour, None, 50);
    assert_eq!(state_of_b(&a), MemberState::Alive, "b was heard 10 ms ago");

    // 20 intervals of silence: a's own detector suspects b (phi 8.7).
    a.tick(240);
    assert_eq!(state_of_b(&a), MemberState::Suspect);
    a.handle_sync(&entry("c", MemberState::Alive), &rumour, None, 240);
    assert_eq!(state_of_b(&a), MemberState::Dead);
}
