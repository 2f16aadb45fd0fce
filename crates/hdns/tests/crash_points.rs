//! Crash-point injection for HDNS persistence.
//!
//! A real [`HdnsNode`] runs over a [`Storage`] shim that models a disk:
//! what a running process sees, what has been synced, and what survives
//! when the process — or the power — dies at a chosen call. Every run is a
//! pure function of its seed; a failure prints `seed`, crash model and
//! boundary, which is all that is needed to replay it.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use groupcast::{Addr, ChannelEvent, SendError};
use hdns::wal::{Slot, Storage};
use hdns::{HdnsEntry, HdnsNode, HdnsStore, Op, OpOutcome, ReplicaChannel};
use parking_lot::Mutex;
use proptest::prelude::*;

// ------------------------------------------------------------- disk --

/// splitmix64: the whole suite's only source of randomness.
#[derive(Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// An unsynced change to one file's content.
#[derive(Clone)]
enum Pending {
    Append(Vec<u8>),
    Truncate(usize),
}

#[derive(Clone, Default)]
struct Inode {
    /// Content as of the last completed sync.
    durable: Vec<u8>,
    /// Changes since, in order.
    pending: Vec<Pending>,
}

impl Inode {
    fn apply(content: &mut Vec<u8>, change: &Pending) {
        match change {
            Pending::Append(bytes) => content.extend_from_slice(bytes),
            Pending::Truncate(len) => content.truncate(*len),
        }
    }

    /// What a running process reads.
    fn content(&self) -> Vec<u8> {
        let mut content = self.durable.clone();
        for change in &self.pending {
            Self::apply(&mut content, change);
        }
        content
    }

    /// What a power loss leaves: the synced content, some prefix of the
    /// unsynced changes, and possibly part of the next append.
    fn after_power_loss(&self, rng: &mut Rng) -> Vec<u8> {
        let mut content = self.durable.clone();
        let kept = rng.below(self.pending.len() + 1);
        for change in &self.pending[..kept] {
            Self::apply(&mut content, change);
        }
        if let Some(Pending::Append(bytes)) = self.pending.get(kept) {
            content.extend_from_slice(&bytes[..rng.below(bytes.len() + 1)]);
        }
        content
    }
}

/// An unsynced change to the directory.
#[derive(Clone)]
enum DirChange {
    Create(Slot, usize),
    Rename(Slot, Slot),
}

fn apply_dir(dir: &mut HashMap<Slot, usize>, change: &DirChange) {
    match change {
        DirChange::Create(slot, inode) => {
            dir.insert(*slot, *inode);
        }
        DirChange::Rename(from, to) => {
            if let Some(inode) = dir.remove(from) {
                dir.insert(*to, inode);
            }
        }
    }
}

/// File contents by slot: what a process starts from, or leaves behind.
type Files = HashMap<Slot, Vec<u8>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Call {
    Append,
    WriteTmp,
    Sync(Slot),
    SyncDir,
    Rename(Slot, Slot),
    Truncate,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrashModel {
    /// `kill -9`: every completed call survives as the process saw it.
    ProcessKill,
    /// Everything after the last completed sync is dropped or torn.
    PowerLoss,
}

/// What goes wrong, and at which boundaries.
#[derive(Clone, Copy)]
enum Fault {
    Never,
    /// The process (or the machine) dies at this call.
    CrashAt(usize),
    /// This call and the `usize - 1` after it fail — a write partially —
    /// and the disk carries on.
    FailAt(usize, usize),
}

struct Disk {
    inodes: Vec<Inode>,
    durable_dir: HashMap<Slot, usize>,
    pending_dir: Vec<DirChange>,
    /// Every mutating call made, in order — the crash boundaries.
    trace: Vec<Call>,
    /// A faulted call is torn (writes) or not made.
    fault: Fault,
    crashed: bool,
    /// The snapshot file as of the last completed directory sync.
    synced_snapshot: Option<Vec<u8>>,
    rng: Rng,
}

impl Disk {
    fn new(files: Files, fault: Fault, seed: u64) -> Disk {
        let mut disk = Disk {
            inodes: Vec::new(),
            durable_dir: HashMap::new(),
            pending_dir: Vec::new(),
            trace: Vec::new(),
            fault,
            crashed: false,
            synced_snapshot: None,
            rng: Rng(seed),
        };
        let mut files: Vec<(Slot, Vec<u8>)> = files.into_iter().collect();
        files.sort_by_key(|(slot, _)| *slot as u8);
        for (slot, durable) in files {
            disk.durable_dir.insert(slot, disk.inodes.len());
            disk.inodes.push(Inode {
                durable,
                pending: Vec::new(),
            });
        }
        disk
    }

    /// The directory as a running process sees it.
    fn dir(&self) -> HashMap<Slot, usize> {
        let mut dir = self.durable_dir.clone();
        for change in &self.pending_dir {
            apply_dir(&mut dir, change);
        }
        dir
    }

    /// Record one boundary; `true` means this call is the faulted one and
    /// must fail without taking effect (beyond what a write tears).
    fn boundary(&mut self, call: Call) -> io::Result<bool> {
        if self.crashed {
            return Err(io::Error::other("disk gone"));
        }
        let index = self.trace.len();
        self.trace.push(call);
        Ok(match self.fault {
            Fault::Never => false,
            Fault::CrashAt(at) => {
                self.crashed = index == at;
                self.crashed
            }
            Fault::FailAt(from, calls) => (from..from + calls).contains(&index),
        })
    }

    /// A write of `bytes`, cut short at a seeded offset when faulted.
    fn torn(&mut self, call: Call, bytes: &[u8]) -> io::Result<(Vec<u8>, bool)> {
        let faulted = self.boundary(call)?;
        let keep = if faulted {
            self.rng.below(bytes.len().max(1))
        } else {
            bytes.len()
        };
        Ok((bytes[..keep].to_vec(), faulted))
    }

    fn inode_of(&mut self, slot: Slot) -> usize {
        if let Some(inode) = self.dir().get(&slot) {
            return *inode;
        }
        let inode = self.inodes.len();
        self.inodes.push(Inode::default());
        self.pending_dir.push(DirChange::Create(slot, inode));
        inode
    }

    /// The files a fresh process finds after the crash (or, with no crash,
    /// after a plain exit).
    fn survivors(&self, model: CrashModel) -> Files {
        let mut rng = self.rng.clone();
        let dir = match model {
            CrashModel::ProcessKill => self.dir(),
            CrashModel::PowerLoss => {
                let mut dir = self.durable_dir.clone();
                let kept = rng.below(self.pending_dir.len() + 1);
                for change in &self.pending_dir[..kept] {
                    apply_dir(&mut dir, change);
                }
                dir
            }
        };
        // Inode order, so the seeded tears do not depend on map order.
        let mut slots: Vec<(Slot, usize)> = dir.into_iter().collect();
        slots.sort_by_key(|(_, inode)| *inode);
        slots
            .into_iter()
            .map(|(slot, inode)| {
                let file = &self.inodes[inode];
                let content = match model {
                    CrashModel::ProcessKill => file.content(),
                    CrashModel::PowerLoss => file.after_power_loss(&mut rng),
                };
                (slot, content)
            })
            .collect()
    }
}

fn injected() -> io::Error {
    io::Error::other("injected fault")
}

/// The [`Storage`] the node under test is given; the test keeps the other
/// handle on the [`Disk`].
struct FaultyStorage(Arc<Mutex<Disk>>);

impl Storage for FaultyStorage {
    fn read(&mut self, slot: Slot) -> io::Result<Option<Vec<u8>>> {
        let disk = self.0.lock();
        if disk.crashed {
            return Err(io::Error::other("disk gone"));
        }
        Ok(disk
            .dir()
            .get(&slot)
            .map(|inode| disk.inodes[*inode].content()))
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut disk = self.0.lock();
        let (written, faulted) = disk.torn(Call::Append, bytes)?;
        let inode = disk.inode_of(Slot::Log);
        disk.inodes[inode].pending.push(Pending::Append(written));
        if faulted {
            return Err(injected());
        }
        Ok(())
    }

    fn write_tmp(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut disk = self.0.lock();
        let (written, faulted) = disk.torn(Call::WriteTmp, bytes)?;
        let inode = disk.inodes.len();
        disk.inodes.push(Inode {
            durable: Vec::new(),
            pending: vec![Pending::Append(written)],
        });
        disk.pending_dir.push(DirChange::Create(Slot::Tmp, inode));
        if faulted {
            return Err(injected());
        }
        Ok(())
    }

    fn sync(&mut self, slot: Slot) -> io::Result<()> {
        let mut disk = self.0.lock();
        if disk.boundary(Call::Sync(slot))? {
            return Err(injected());
        }
        let inode = disk.inode_of(slot);
        let file = &mut disk.inodes[inode];
        file.durable = file.content();
        file.pending.clear();
        Ok(())
    }

    fn sync_dir(&mut self) -> io::Result<()> {
        let mut disk = self.0.lock();
        if disk.boundary(Call::SyncDir)? {
            return Err(injected());
        }
        disk.durable_dir = disk.dir();
        disk.pending_dir.clear();
        let snapshot = disk.durable_dir.get(&Slot::Snapshot).copied();
        disk.synced_snapshot = snapshot.map(|inode| disk.inodes[inode].durable.clone());
        Ok(())
    }

    fn rename(&mut self, from: Slot, to: Slot) -> io::Result<()> {
        let mut disk = self.0.lock();
        if !disk.dir().contains_key(&from) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such file"));
        }
        if disk.boundary(Call::Rename(from, to))? {
            return Err(injected());
        }
        disk.pending_dir.push(DirChange::Rename(from, to));
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let mut disk = self.0.lock();
        if disk.boundary(Call::Truncate)? {
            return Err(injected());
        }
        let inode = disk.inode_of(Slot::Log);
        disk.inodes[inode]
            .pending
            .push(Pending::Truncate(len as usize));
        Ok(())
    }
}

// ---------------------------------------------------------- harness --

/// A group of one: multicasts come straight back.
#[derive(Clone, Default)]
struct Loopback(Arc<Mutex<Vec<ChannelEvent>>>);

const ME: Addr = Addr(1);

impl ReplicaChannel for Loopback {
    fn addr(&self) -> Addr {
        ME
    }
    fn connect(&self, _group: &str) -> Result<(), SendError> {
        Ok(())
    }
    fn disconnect(&self) {}
    fn mcast(&self, bytes: Vec<u8>) -> Result<(), SendError> {
        self.0
            .lock()
            .push(ChannelEvent::Message { from: ME, bytes });
        Ok(())
    }
    fn poll(&self) -> Vec<ChannelEvent> {
        std::mem::take(&mut *self.0.lock())
    }
    fn provide_state(&self, _to: Addr, _bytes: Vec<u8>) -> Result<(), SendError> {
        Ok(())
    }
}

#[derive(Clone)]
enum Step {
    Write(Op),
    /// State transfer: the store is replaced wholesale.
    SetState(HdnsStore),
}

/// A seeded run: steps, how they are batched into `process()` calls, and
/// the model store's snapshot after every prefix.
struct Script {
    batches: Vec<Vec<Step>>,
    /// `model[j]` = `HdnsStore::snapshot()` after the first `j` steps.
    model: Vec<Vec<u8>>,
    /// What each write must resolve to.
    expected: Vec<Option<Result<(), hdns::HdnsError>>>,
}

fn random_op(rng: &mut Rng, max_value: usize) -> Op {
    let path = |rng: &mut Rng| match rng.below(3) {
        0 => format!("t{}", rng.below(4)),
        // `c3` is never created: binds under it fail at every replica.
        _ => format!("c{}/k{}", rng.below(4), rng.below(3)),
    };
    match rng.below(20) {
        0 => Op::CreateContext {
            path: format!("c{}", rng.below(3)),
        },
        1 | 2 => Op::Unbind {
            // Sometimes a context that still has children.
            path: if rng.below(4) == 0 {
                format!("c{}", rng.below(3))
            } else {
                path(rng)
            },
        },
        3 => Op::Rename {
            from: path(rng),
            to: path(rng),
        },
        4 | 5 => Op::SetAttrs {
            path: path(rng),
            attrs: [(format!("a{}", rng.below(3)), format!("v{}", rng.below(100)))].into(),
        },
        kind => Op::Bind {
            path: path(rng),
            entry: HdnsEntry::leaf(vec![rng.below(10) as u8; rng.below(max_value) + 1]),
            // Atomic binds collide with earlier ones and fail.
            overwrite: kind < 18,
        },
    }
}

/// A small foreign lineage for state transfer: fewer ops applied than the
/// receiving store has, which is the case `install_state` must fold the
/// log away for.
fn foreign_state(rng: &mut Rng) -> HdnsStore {
    let mut store = HdnsStore::new();
    for ctx in ["c0", "c1", "c2"] {
        let _ = store.apply(&Op::CreateContext { path: ctx.into() });
    }
    for _ in 0..rng.below(6) + 2 {
        let _ = store.apply(&random_op(rng, 400));
    }
    store
}

impl Script {
    fn new(rng: &mut Rng, steps: usize, max_value: usize, set_state_at: &[usize]) -> Script {
        let mut store = HdnsStore::new();
        let mut model = vec![store.snapshot()];
        let mut expected = Vec::new();
        let mut batches: Vec<Vec<Step>> = Vec::new();
        let mut room = 0;
        for i in 0..steps {
            let step = if set_state_at.contains(&i) {
                let state = foreign_state(rng);
                store = state.clone();
                expected.push(None);
                room = 0; // a state transfer is a `process()` call of its own
                Step::SetState(state)
            } else {
                // The first steps build the contexts the rest writes under.
                let op = match i {
                    0..=2 => Op::CreateContext {
                        path: format!("c{i}"),
                    },
                    _ => random_op(rng, max_value),
                };
                expected.push(Some(store.apply(&op)));
                Step::Write(op)
            };
            model.push(store.snapshot());
            if room == 0 {
                batches.push(Vec::new());
                room = match step {
                    Step::SetState(_) => 1,
                    Step::Write(_) => rng.below(3) + 1,
                };
            }
            batches.last_mut().expect("pushed above").push(step);
            room -= 1;
        }
        Script {
            batches,
            model,
            expected,
        }
    }
}

struct Outcome {
    /// The disk as the (possibly crashed) run left it.
    disk: Arc<Mutex<Disk>>,
    /// Steps whose `process()` call returned before the crash: every write
    /// among them was observed `Done`.
    acknowledged: usize,
    /// Steps handed to the node at all.
    submitted: usize,
}

/// Drive `script` through a real node over a disk that crashes at
/// (`Fault::CrashAt`) or stumbles (`Fault::FailAt`).
fn run(script: &Script, fault: Fault, seed: u64) -> Result<Outcome, String> {
    let disk = Arc::new(Mutex::new(Disk::new(Files::new(), fault, seed)));
    let channel = Loopback::default();
    let mut node = HdnsNode::with_storage(channel.clone(), Box::new(FaultyStorage(disk.clone())));
    let (mut acknowledged, mut submitted) = (0, 0);
    for batch in &script.batches {
        let mut tickets = Vec::new();
        for step in batch {
            match step {
                Step::Write(op) => tickets.push(Some(node.submit(op.clone()).expect("loopback"))),
                Step::SetState(state) => {
                    channel.0.lock().push(ChannelEvent::SetState {
                        bytes: state.snapshot(),
                    });
                    tickets.push(None);
                }
            }
        }
        let first = submitted;
        submitted += batch.len();
        node.process();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let Some(ticket) = ticket else { continue };
            let got = node.outcome(ticket);
            let want = OpOutcome::Done(script.expected[first + i].clone().expect("a write"));
            if got != want {
                return Err(format!(
                    "step {}: resolved {got:?}, model {want:?}",
                    first + i
                ));
            }
        }
        if disk.lock().crashed {
            break;
        }
        acknowledged = submitted;
    }
    Ok(Outcome {
        disk,
        acknowledged,
        submitted,
    })
}

/// Recover a node from `files`; returns its store, what the recovery did
/// to the disk, and the files afterwards.
fn recover(files: Files) -> (Vec<u8>, Vec<Call>, Files) {
    let disk = Arc::new(Mutex::new(Disk::new(files, Fault::Never, 0)));
    let node = HdnsNode::with_storage(Loopback::default(), Box::new(FaultyStorage(disk.clone())));
    let disk = disk.lock();
    (
        node.store_snapshot(),
        disk.trace.clone(),
        disk.survivors(CrashModel::ProcessKill),
    )
}

/// Crash at boundary `k`, then — once per crash model, from the same
/// crashed disk — recover and check the contract.
fn check_crash(script: &Script, k: usize, seed: u64) -> Result<(), String> {
    let outcome = run(script, Fault::CrashAt(k), seed)?;
    let disk = outcome.disk.lock();
    if !disk.crashed {
        return Err(format!("boundary {k} was never reached"));
    }
    for model in [CrashModel::ProcessKill, CrashModel::PowerLoss] {
        // Under process kill everything acknowledged is owed; under power
        // loss, only what the last completed sync covered.
        let floor = match model {
            CrashModel::ProcessKill => outcome.acknowledged,
            CrashModel::PowerLoss => match &disk.synced_snapshot {
                Some(snapshot) => (script.model.iter())
                    .rposition(|m| m == snapshot)
                    .ok_or("the synced snapshot is no prefix of the run")?,
                None => 0,
            },
        };
        let (recovered, _, files) = recover(disk.survivors(model));
        if !(floor..=outcome.submitted).any(|j| script.model[j] == recovered) {
            let anywhere = script.model.iter().position(|m| *m == recovered);
            return Err(format!(
                "{model:?}: recovered store is {} (owed at least {floor} of {} steps)",
                anywhere.map_or("no prefix of the run".into(), |j| format!("prefix {j}")),
                outcome.submitted,
            ));
        }
        let (again, calls, files_again) = recover(files.clone());
        if again != recovered || !calls.is_empty() || files_again != files {
            return Err(format!(
                "{model:?}: a second recovery was not a no-op: {calls:?}"
            ));
        }
    }
    Ok(())
}

// ------------------------------------------------------------ tests --

const SCRIPT_SEED: u64 = 0x4844_4e53; // "HDNS"

/// 200 mixed steps: three contexts, then seeded binds / rebinds / unbinds /
/// renames / set-attrs (a share of them failing by construction), one state
/// transfer to a lower-numbered lineage two thirds in.
/// Values run to 6 000 bytes (a binary record is its value plus ≈ 30), which
/// takes the log past its 64 KiB threshold three times in 200 steps.
fn scripted() -> Script {
    Script::new(&mut Rng(SCRIPT_SEED), 200, 6000, &[130])
}

#[test]
fn scripted_run_compacts_and_recovers_cleanly_without_a_crash() {
    let script = scripted();
    let outcome = run(&script, Fault::Never, SCRIPT_SEED).unwrap();
    assert_eq!(outcome.acknowledged, 200);
    let disk = outcome.disk.lock();
    let failing = (script.expected.iter())
        .filter(|e| matches!(e, Some(Err(_))))
        .count();
    assert!(failing >= 10, "only {failing} ops fail deterministically");
    let renames = |disk: &Disk| {
        (disk.trace.iter())
            .filter(|c| **c == Call::Rename(Slot::Tmp, Slot::Snapshot))
            .count()
    };
    // Two for the state transfer (fold the old lineage, install the new),
    // the rest because the log outgrew its threshold.
    assert!(
        renames(&disk) >= 4,
        "{} compactions: {:?}",
        renames(&disk),
        disk.trace
    );
    let (recovered, calls, _) = recover(disk.survivors(CrashModel::ProcessKill));
    assert_eq!(recovered, script.model[200]);
    assert!(calls.is_empty(), "clean files need no repair: {calls:?}");
}

/// Process kill: the recovered store is a prefix of the run holding every
/// write acknowledged before the crash. Power loss: a prefix holding at
/// least what the last completed sync covered. Either way a second
/// recovery changes nothing.
#[test]
fn a_crash_at_every_boundary_of_the_scripted_run_keeps_the_contract() {
    let script = scripted();
    let boundaries = run(&script, Fault::Never, SCRIPT_SEED)
        .unwrap()
        .disk
        .lock()
        .trace
        .len();
    assert!(
        boundaries > script.batches.len(),
        "one append per batch, plus compactions"
    );
    for k in 0..boundaries {
        // A different tear offset at every boundary, still replayable.
        let seed = SCRIPT_SEED ^ (k as u64) << 32;
        if let Err(e) = check_crash(&script, k, seed) {
            panic!("boundary {k} of {boundaries} (seed {seed:#x}): {e}");
        }
    }
}

/// A disk that fails without dying. One failed call — an append torn
/// part-way, or any step of a compaction — is healed by the next
/// compaction, so the files end up holding the whole run. Two in a row
/// (an append and the compaction that would have healed it, or both
/// compactions of a state transfer) leave a log nothing more is appended
/// to until a compaction lands: writes acknowledged meanwhile are only in
/// memory, but what recovery finds is still a prefix of the run.
#[test]
fn transient_failures_heal_or_at_worst_leave_a_prefix() {
    let script = Script::new(&mut Rng(11), 60, 60, &[30]);
    let clean = run(&script, Fault::Never, 11).unwrap();
    let boundaries = clean.disk.lock().trace.len();
    for k in 0..boundaries {
        for calls in [1, 2] {
            let outcome = run(&script, Fault::FailAt(k, calls), 11).unwrap();
            assert_eq!(outcome.acknowledged, 60, "the replica keeps serving");
            let survivors = outcome.disk.lock().survivors(CrashModel::ProcessKill);
            let (recovered, ..) = recover(survivors);
            let prefix = script.model.iter().rposition(|m| *m == recovered);
            match calls {
                1 => assert_eq!(prefix, Some(60), "one failure at call {k} healed"),
                _ => assert!(prefix.is_some(), "failures at calls {k}, {}", k + 1),
            }
        }
    }
}

/// No sync sits between a proposal's delivery and its ticket resolving:
/// below the compaction threshold the write path is appends and nothing
/// else, one per `process()` call however many proposals it delivered.
#[test]
fn the_acknowledgement_path_only_appends() {
    let script = Script::new(&mut Rng(7), 120, 40, &[]);
    let outcome = run(&script, Fault::Never, 7).unwrap();
    assert_eq!(outcome.acknowledged, 120);
    let disk = outcome.disk.lock();
    assert_eq!(disk.trace.len(), script.batches.len());
    assert!(
        disk.trace.iter().all(|c| *c == Call::Append),
        "{:?}",
        disk.trace
    );
    assert!(
        script.batches.iter().any(|b| b.len() > 1),
        "some calls deliver several"
    );
}

/// Syncs happen at compaction, and compaction is exactly: tmp write, tmp
/// sync, rename, directory sync, log truncate, log sync.
#[test]
fn shutdown_compacts_in_the_crash_safe_order() {
    let disk = Arc::new(Mutex::new(Disk::new(Files::new(), Fault::Never, 0)));
    let mut node =
        HdnsNode::with_storage(Loopback::default(), Box::new(FaultyStorage(disk.clone())));
    let ticket = node.submit(Op::CreateContext { path: "c".into() }).unwrap();
    node.process();
    assert_eq!(node.outcome(ticket), OpOutcome::Done(Ok(())));
    node.shutdown();
    assert_eq!(
        disk.lock().trace,
        [
            Call::Append,
            Call::WriteTmp,
            Call::Sync(Slot::Tmp),
            Call::Rename(Slot::Tmp, Slot::Snapshot),
            Call::SyncDir,
            Call::Truncate,
            Call::Sync(Slot::Log),
        ]
    );
}

proptest! {
    /// Random scripts (length, value sizes, where state transfers fall) ×
    /// random crash boundary, both crash models. Everything derives from
    /// `seed`, which the failure message carries.
    #[test]
    fn random_scripts_survive_a_crash_anywhere(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let steps = rng.below(60) + 1;
        // Mostly small values; sometimes big enough to hit the threshold.
        let max_value = if rng.below(8) == 0 { 4000 } else { 60 };
        let transfers: Vec<usize> = (0..rng.below(3)).map(|_| rng.below(steps)).collect();
        let script = Script::new(&mut rng, steps, max_value, &transfers);
        let boundaries = run(&script, Fault::Never, seed).unwrap().disk.lock().trace.len();
        let k = rng.below(boundaries);
        let checked = check_crash(&script, k, seed);
        prop_assert!(
            checked.is_ok(),
            "seed {seed:#x}, boundary {k} of {boundaries}: {}",
            checked.unwrap_err()
        );
    }
}
