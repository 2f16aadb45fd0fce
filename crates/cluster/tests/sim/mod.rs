//! A seeded simulation of an N-node cluster: the production cluster logic
//! with no sockets, threads or wall clock.
//!
//! Each slot hosts one process, a real [`NodeReplica`]: the `NodeState`
//! and `HdnsNode<TcpChannel>` that `ClusterNode`'s pacer and gossip handler
//! drive over TCP. A round plays both for every live process in turn: it
//! asks the node for its round plan, hands the encoded payloads the pacer
//! would send to their targets' `handle` in memory, hands the encoded
//! replies back and pumps the replica; then virtual time advances by one
//! gossip interval. So every frame crosses the plane's codec, as on TCP. A
//! seed replays a run exactly.
//!
//! Faults, each drawn from the seed where [`Faults`] asks for it:
//! - **loss**: every membership frame (a Sync, its reply, an
//!   `InstallView`) is dropped with p = `drop_p`. Replication frames
//!   (`Forward`, `Ordered`, `State`) arrive on a live link, as on the TCP
//!   connection that carries them: the sequencer has no retransmission
//!   (ROADMAP item 3);
//! - **duplication**: any frame is handed over twice with p = `dup_p`;
//! - **reordering**: the order in which processes take their turn is
//!   shuffled every round; frames on one link keep FIFO order, as on TCP;
//! - **clock offsets**: a process reads virtual time plus a constant drawn
//!   for its slot;
//! - **cuts** ([`Sim::cut`], [`Sim::cut_one_way`]): frames from one slot
//!   to another are lost;
//! - **crash** ([`Sim::crash`]): a slot stops being carried, and frames to
//!   it are dropped;
//! - **restart** ([`Sim::restart`]): a fresh process with the same name at
//!   a new endpoint (`mem:2.1`). Replicas are memory-only, so it rejoins
//!   empty and state transfer fills it.
//!
//! Checked after every round, panicking with the fault log:
//! - a process's view seq never goes down (a restarted one starts at 0);
//! - one view per seq, across every process and all of the run;
//! - a restarted process enters a view only with a bumped incarnation, and
//!   no sooner than the quarantine after its predecessor was first held
//!   Dead.
//!
//! Every write goes through [`Sim::write`], which keeps its outcome;
//! [`Sim::check_writes`] holds the replicas to that ledger once healed.

#![allow(dead_code)] // each test file uses its own part of the harness

use std::collections::{BTreeMap, BTreeSet};

use groupcast::{Addr, Wire};
use hdns::{HdnsEntry, Op, RealmError};
use rndi_cluster::msg::decode_request;
use rndi_cluster::{
    addr_of, ClusterConfig, GossipRequest, MemberEntry, MemberState, NodeReplica, ViewSummary,
};
use rndi_core::env::{keys, Environment};
use rndi_obs::metrics::Registry;

pub const INTERVAL_MS: u64 = 10;
pub const QUARANTINE_MS: u64 = 400;

/// How hostile the network is; fixed for a run.
#[derive(Clone, Copy, Debug)]
pub struct Faults {
    /// Chance that a membership frame is lost.
    pub drop_p: f64,
    /// Chance that a frame is handed over twice.
    pub dup_p: f64,
    /// Shuffle the processes' turn order every round.
    pub shuffle: bool,
    /// Each slot's clock runs ahead of virtual time by `[0, max_offset_ms)`.
    pub max_offset_ms: u64,
}

/// Membership-frame loss only.
pub const LOSSY: Faults = Faults {
    drop_p: 0.1,
    dup_p: 0.0,
    shuffle: false,
    max_offset_ms: 0,
};

pub const RELIABLE: Faults = Faults {
    drop_p: 0.0,
    ..LOSSY
};

/// What became of a write, as its client saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Acked,
    /// `NotPrimary`: refused before it was submitted.
    Refused,
    /// Given up on (`TimedOut`, `NodeUnavailable`): it may still apply.
    Unknown,
}

struct Process {
    replica: NodeReplica,
    endpoint: String,
    /// The highest view seq this process has installed.
    seq: u64,
    /// A restarted process not yet seen in any installed view.
    rejoining: bool,
    /// How long after its predecessor was first held Dead a restarted
    /// process entered a view.
    admitted_after: Option<u64>,
}

pub struct Sim {
    slots: Vec<Option<Process>>,
    restarts: Vec<u32>,
    offsets: Vec<u64>,
    /// When a peer first held the slot's process Dead, until none does.
    dead_at: Vec<Option<u64>>,
    /// Every view installed anywhere, by seq.
    views: BTreeMap<u64, Vec<Addr>>,
    /// Directed links that lose every frame.
    cuts: BTreeSet<(usize, usize)>,
    pub now_ms: u64,
    rng: u64,
    faults: Faults,
    writes: Vec<(String, Outcome)>,
    log: Vec<String>,
}

fn name(i: usize) -> String {
    format!("node-{i}")
}

/// The group address of a rendered view member: a name, or `?<addr>`.
fn addr(member: &str) -> Addr {
    match member.strip_prefix('?') {
        Some(raw) => Addr(raw.parse().expect("a rendered address")),
        None => addr_of(member),
    }
}

impl Sim {
    /// `n` processes; slot 0 founds the group, the others are pointed at it.
    pub fn boot(n: usize, seed: u64, faults: Faults) -> Sim {
        let mut sim = Sim {
            slots: Vec::new(),
            restarts: vec![0; n],
            offsets: Vec::new(),
            dead_at: vec![None; n],
            views: BTreeMap::new(),
            cuts: BTreeSet::new(),
            now_ms: 0,
            rng: seed,
            faults,
            writes: Vec::new(),
            log: Vec::new(),
        };
        sim.offsets = (0..n)
            .map(|_| match faults.max_offset_ms {
                0 => 0,
                max => sim.draw(max as usize) as u64,
            })
            .collect();
        for i in 0..n {
            let seed = (i > 0).then(|| "mem:0".to_string());
            let process = sim.spawn(i, format!("mem:{i}"), seed);
            sim.slots.push(Some(process));
        }
        sim
    }

    fn spawn(&self, i: usize, endpoint: String, seed: Option<String>) -> Process {
        let mut env = Environment::new()
            .with(keys::CLUSTER_GOSSIP_INTERVAL_MS, INTERVAL_MS.to_string())
            .with(keys::CLUSTER_QUARANTINE_MS, QUARANTINE_MS.to_string());
        if let Some(seed) = seed {
            env = env.with(keys::CLUSTER_SEED, seed);
        }
        let config = ClusterConfig::from_env(name(i), "mem", &env).unwrap();
        let replica = NodeReplica::new(&config, &Registry::new());
        replica.open(&endpoint).unwrap();
        Process {
            replica,
            endpoint,
            seq: 0,
            rejoining: false,
            admitted_after: None,
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

    /// A uniform draw from `0..n`.
    pub fn draw(&mut self, n: usize) -> usize {
        (self.chance() * n as f64) as usize
    }

    fn lost(&mut self) -> bool {
        self.chance() < self.faults.drop_p
    }

    fn copies(&mut self) -> usize {
        let dup = self.faults.dup_p > 0.0 && self.chance() < self.faults.dup_p;
        1 + dup as usize
    }

    /// Record a step of the schedule; [`Sim::fail`] prints them all.
    pub fn note(&mut self, what: impl Into<String>) {
        let what = what.into();
        self.log.push(format!("t={}ms {what}", self.now_ms));
    }

    /// Panic with `what`, the schedule so far and every live node's state.
    pub fn fail(&self, what: &str) -> ! {
        let nodes = self.live().into_iter().map(|i| {
            let state = self.node(i).state.lock();
            let beliefs = state.members().into_iter();
            let beliefs: Vec<_> = beliefs
                .map(|m| format!("{}@{}:{:?}", m.name, m.incarnation, m.state))
                .collect();
            let gate = if state.writes_allowed() {
                "open"
            } else {
                "shut"
            };
            format!("node-{i}: {:?} {gate} {}", state.view(), beliefs.join(" "))
        });
        panic!(
            "{what} at t={}ms\nschedule ({:?}):\n  {}\nnodes:\n  {}",
            self.now_ms,
            self.faults,
            self.log.join("\n  "),
            nodes.collect::<Vec<_>>().join("\n  ")
        )
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_live(&self, i: usize) -> bool {
        self.slots[i].is_some()
    }

    pub fn live(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.is_live(i)).collect()
    }

    /// The process in slot `i` (panics on a crashed slot).
    pub fn node(&self, i: usize) -> &NodeReplica {
        match &self.slots[i] {
            Some(p) => &p.replica,
            None => self.fail(&format!("node-{i} is crashed")),
        }
    }

    /// The highest view seq slot `i`'s process has installed.
    pub fn seq(&self, i: usize) -> u64 {
        self.slots[i].as_ref().map_or(0, |p| p.seq)
    }

    fn clock(&self, i: usize) -> u64 {
        self.now_ms + self.offsets[i]
    }

    fn slot_of(&self, endpoint: &str) -> Option<usize> {
        self.slots
            .iter()
            .position(|p| p.as_ref().is_some_and(|p| p.endpoint == endpoint))
    }

    fn reaches(&self, from: usize, to: usize) -> bool {
        !self.cuts.contains(&(from, to))
    }

    /// Sever every link between `a` and `b`, both ways.
    pub fn cut(&mut self, a: &[usize], b: &[usize]) {
        self.note(format!("cut {a:?} | {b:?}"));
        for &i in a {
            for &j in b {
                self.cuts.insert((i, j));
                self.cuts.insert((j, i));
            }
        }
    }

    /// Lose frames `from` → `to`; the other direction still arrives.
    pub fn cut_one_way(&mut self, from: usize, to: usize) {
        self.note(format!("cut {from} -> {to}"));
        self.cuts.insert((from, to));
    }

    pub fn heal_one_way(&mut self, from: usize, to: usize) {
        self.note(format!("heal {from} -> {to}"));
        self.cuts.remove(&(from, to));
    }

    pub fn heal(&mut self) {
        self.note("heal");
        self.cuts.clear();
    }

    /// The process in slot `i` stops, mid-whatever, without a goodbye.
    pub fn crash(&mut self, i: usize) {
        self.note(format!("crash node-{i}"));
        self.slots[i] = None;
    }

    /// A fresh process for crashed slot `i`: same name, new endpoint,
    /// pointed at the lowest live slot that is not itself rejoining.
    pub fn restart(&mut self, i: usize) {
        assert!(!self.is_live(i), "node-{i} is running");
        self.restarts[i] += 1;
        let endpoint = format!("mem:{i}.{}", self.restarts[i]);
        self.note(format!("restart node-{i} at {endpoint}"));
        let settled = self.slots.iter().flatten().find(|p| !p.rejoining);
        let seed = settled.map(|p| p.endpoint.clone());
        let mut process = self.spawn(i, endpoint, seed);
        process.rejoining = true;
        self.slots[i] = Some(process);
    }

    /// One gossip interval: every live process takes its pacer's turn.
    pub fn round(&mut self) {
        let mut order = self.live();
        if self.faults.shuffle {
            for k in (1..order.len()).rev() {
                let pick = self.draw(k + 1);
                order.swap(k, pick);
            }
        }
        for i in order {
            self.carry(i);
            self.pump(i);
        }
        self.tick();
    }

    /// Pump slot `i`'s replica: apply deliveries, answer state requests.
    pub fn pump(&mut self, i: usize) {
        if let Some(p) = &self.slots[i] {
            p.replica.hdns.lock().process();
        }
    }

    /// The I/O half of slot `i`'s pacer round: plan, exchange, flush.
    pub fn carry(&mut self, i: usize) {
        let now = self.clock(i);
        let node = self.node(i).clone();
        let plan = node.state.lock().plan_round(now);
        for (peer, ep) in &plan.targets {
            let Some(j) = self.slot_of(ep) else {
                continue; // nothing listens there any more
            };
            if !self.reaches(i, j) || self.lost() {
                continue; // the exchange failed: a missed heartbeat
            }
            let target = self.node(j).clone();
            let mut reply = None;
            for _ in 0..self.copies() {
                reply = Some(target.state.lock().handle(&plan.sync, self.clock(j)));
            }
            let reply = reply.expect("handed over at least once");
            if !self.reaches(j, i) || self.lost() {
                continue;
            }
            for _ in 0..self.copies() {
                let mut state = node.state.lock();
                state.absorb(peer.as_deref(), ep, &reply, self.clock(i));
            }
        }
        for (ep, frame) in plan.wires {
            let Some(j) = self.slot_of(&ep) else {
                continue;
            };
            // Decoded only to classify it for the loss rule.
            let membership = matches!(
                decode_request(&frame),
                Ok(GossipRequest::Group {
                    wire: Wire::InstallView(_),
                    ..
                })
            );
            if !self.reaches(i, j) || (membership && self.lost()) {
                continue;
            }
            let target = self.node(j).clone();
            for _ in 0..self.copies() {
                target.state.lock().handle(&frame, self.clock(j));
            }
        }
    }

    /// One gossip interval passes; the invariants are checked.
    pub fn tick(&mut self) {
        let states: Vec<_> = self
            .live()
            .into_iter()
            .map(|i| {
                let state = self.node(i).state.lock();
                (i, state.view(), state.members())
            })
            .collect();
        for (i, view, _) in &states {
            let seq = view.as_ref().map_or(0, |v| v.seq);
            let process = self.slots[*i].as_mut().expect("live");
            let before = std::mem::replace(&mut process.seq, seq);
            if seq < before {
                self.fail(&format!("node-{i}'s view went {before} -> {seq}"));
            }
            if let Some(view) = view {
                // Compared by address: a member that installed a view before
                // it learned every name renders the rest as `?<addr>`.
                let addrs: Vec<Addr> = view.members.iter().map(|m| addr(m)).collect();
                let minted = self.views.entry(seq).or_insert(addrs.clone()).clone();
                if minted != addrs {
                    self.fail(&format!("two views at seq {seq}: {minted:?} and {view:?}"));
                }
            }
        }
        self.check_quarantine(&states);
        self.now_ms += INTERVAL_MS;
    }

    /// Track when each slot is first held Dead by a peer, and hold a
    /// restarted process's admission to a bumped incarnation and the
    /// quarantine since then.
    fn check_quarantine(&mut self, states: &[(usize, Option<ViewSummary>, Vec<MemberEntry>)]) {
        for i in 0..self.len() {
            let me = name(i);
            let held_dead = states.iter().any(|(j, _, members)| {
                *j != i
                    && members
                        .iter()
                        .any(|m| m.name == me && m.state >= MemberState::Dead)
            });
            let rejoining = self.slots[i].as_ref().map(|p| p.rejoining);
            match (held_dead, self.dead_at[i]) {
                (true, None) => self.dead_at[i] = Some(self.now_ms),
                (false, Some(_)) if rejoining == Some(false) => self.dead_at[i] = None,
                _ => {}
            }
            let in_a_view = |(_, view, _): &(usize, Option<ViewSummary>, Vec<MemberEntry>)| {
                view.as_ref().is_some_and(|v| v.members.contains(&me))
            };
            if rejoining != Some(true) || !states.iter().any(in_a_view) {
                continue;
            }
            let incarnation = self.incarnation(i);
            let died = self.dead_at[i].unwrap_or_else(|| self.fail(&format!("{me} never died")));
            let after = self.now_ms - died;
            let admitted = format!(
                "{me} admitted at incarnation {incarnation}, {after} ms after it was held Dead"
            );
            if incarnation <= 1 || after < QUARANTINE_MS {
                self.fail(&admitted);
            }
            self.note(admitted);
            let process = self.slots[i].as_mut().expect("live");
            process.rejoining = false;
            process.admitted_after = Some(after);
        }
    }

    /// How long after its predecessor was first held Dead slot `i`'s
    /// restarted process entered a view.
    pub fn admitted_after(&self, i: usize) -> Option<u64> {
        self.slots[i].as_ref().and_then(|p| p.admitted_after)
    }

    /// The incarnation of slot `i`'s process.
    pub fn incarnation(&self, i: usize) -> u64 {
        let members = self.node(i).state.lock().members();
        let me = name(i);
        members
            .iter()
            .find(|m| m.name == me)
            .map_or(0, |m| m.incarnation)
    }

    /// What slot `i`'s process believes about `peer`.
    pub fn belief(&self, i: usize, peer: &str) -> Option<MemberState> {
        let members = self.node(i).state.lock().members();
        members.iter().find(|m| m.name == peer).map(|m| m.state)
    }

    pub fn run_until(&mut self, what: &str, mut cond: impl FnMut(&Sim) -> bool) {
        for _ in 0..1_000 {
            if cond(self) {
                return;
            }
            self.round();
        }
        self.fail(&format!("{what}: not within 1000 rounds"));
    }

    /// Run until no process's view or beliefs have changed for `quiet`
    /// rounds; `false` if that does not happen within 300 rounds.
    pub fn settle(&mut self, quiet: usize) -> bool {
        let fingerprint = |s: &Sim| -> Vec<_> {
            s.live()
                .into_iter()
                .map(|i| {
                    let state = s.node(i).state.lock();
                    let beliefs: Vec<_> = state
                        .members()
                        .into_iter()
                        .map(|m| (m.name, m.incarnation, m.state))
                        .collect();
                    (i, state.view(), beliefs, state.writes_allowed())
                })
                .collect()
        };
        let mut last = fingerprint(self);
        let mut unchanged = 0;
        for _ in 0..300 {
            self.round();
            let now = fingerprint(self);
            unchanged = if now == last { unchanged + 1 } else { 0 };
            if unchanged >= quiet {
                return true;
            }
            last = now;
        }
        false
    }

    pub fn members(&self, i: usize) -> Vec<String> {
        match &self.slots[i] {
            Some(p) => p
                .replica
                .state
                .lock()
                .view()
                .map(|v| v.members)
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// `nodes` hold one view of exactly themselves, believe each other
    /// alive and accept writes.
    pub fn converged(&self, nodes: &[usize]) -> bool {
        let reference = self.members(nodes[0]);
        reference.len() == nodes.len()
            && nodes.iter().all(|&i| {
                let Some(p) = &self.slots[i] else {
                    return false;
                };
                let state = p.replica.state.lock();
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

    /// A client's write through slot `i`: the gate, the submit and the
    /// wait are the node's own; only the pump is ours. The outcome goes in
    /// the ledger [`Sim::check_writes`] reads.
    pub fn write_op(&mut self, i: usize, op: Op) -> Result<(), RealmError> {
        let path = match &op {
            Op::Bind { path, .. } | Op::CreateContext { path } => path.clone(),
            other => self.fail(&format!("the ledger keeps binds and mkdirs, not {other:?}")),
        };
        let node = self.node(i).clone();
        let mut rounds_left = 50;
        let result = node.write(op, || {
            self.round();
            rounds_left -= 1;
            rounds_left > 0
        });
        let outcome = match &result {
            Ok(()) => Outcome::Acked,
            Err(RealmError::NotPrimary) => Outcome::Refused,
            Err(RealmError::TimedOut | RealmError::NodeUnavailable) => Outcome::Unknown,
            Err(e) => self.fail(&format!("{path} via node-{i}: {e}")),
        };
        self.note(format!("write {path} via node-{i}: {outcome:?}"));
        self.writes.push((path, outcome));
        result
    }

    /// Bind `path` to its own bytes through slot `i`.
    pub fn write(&mut self, i: usize, path: &str) -> Result<(), RealmError> {
        let op = Op::Bind {
            path: path.to_string(),
            entry: HdnsEntry::leaf(path.as_bytes().to_vec()),
            overwrite: true,
        };
        self.write_op(i, op)
    }

    pub fn holds(&self, i: usize, path: &str) -> bool {
        self.node(i).hdns.lock().lookup(path).is_some()
    }

    /// Every live replica against the ledger: an acknowledged write is on
    /// all of them, a refused one on none, a given-up one on all or none.
    pub fn check_writes(&self) {
        let live = self.live();
        for (path, outcome) in &self.writes {
            let holders: Vec<usize> = live
                .iter()
                .copied()
                .filter(|&i| self.holds(i, path))
                .collect();
            let fine = match outcome {
                Outcome::Acked => holders == live,
                Outcome::Refused => holders.is_empty(),
                Outcome::Unknown => holders.is_empty() || holders == live,
            };
            if !fine {
                self.fail(&format!(
                    "{outcome:?} write {path} is on {holders:?} of {live:?}"
                ));
            }
        }
    }

    /// Paths the ledger holds as acknowledged.
    pub fn acked(&self) -> Vec<String> {
        let acked = self.writes.iter().filter(|(_, o)| *o == Outcome::Acked);
        acked.map(|(path, _)| path.clone()).collect()
    }
}
