//! Eisenberg & McGuire's N-process mutual exclusion.
//!
//! The Jini lookup service offers only overwrite (register) and read
//! (lookup) primitives — no compare-and-set. To give JNDI's `bind` its
//! mandated atomic semantics, the paper "adopts Eisenberg and McGuire's
//! algorithm, which depends only on the basic read and write primitives,
//! but which is rather costly: it takes 3 reads and 5 writes to enter and
//! leave a critical section in the uncontended case", an ≥8× latency
//! penalty over a raw Jini call.
//!
//! The algorithm runs over [`SharedRegisters`] — an abstraction the Jini
//! provider implements with lock entries in the registry itself, so each
//! register access is a full client/registrar round-trip. The lock opens
//! its `n` flag registers and its `turn` register once; an access then
//! names a register and a state by index, and builds no key or value.
//!
//! Uncontended, our lock costs 5 reads and 5 writes, not the paper's 3 and
//! 5 (`uncontended_cost_matches_paper` holds it to exactly that). The
//! writes are the paper's: `waiting`, `active`, `turn := me` to enter,
//! `turn := next` and `idle` to leave. The reads are the paper's 3 — `turn`
//! to defer to its holder, each other flag (one, at n = 2) to check the
//! claim, that flag again to pick the next turn on leaving — plus two the
//! paper does not count: the re-read of `turn` after the claim (the
//! algorithm's `turn == me || flag[turn] == idle` test) and `unlock`'s read
//! of `turn`, which, while the lock is held, can only read `me`.
//!
//! A holder that never leaves — a process that died in the critical
//! section — keeps every other process waiting. A caller that passes a
//! [`Deadline`] stops waiting once its clock reaches it, withdraws its
//! flag, and gets a typed `Timeout`; one that passes none waits, and reads
//! no clock.

use std::sync::Arc;

use rndi_core::error::{NamingError, Result};

use crate::common::MsClock;

/// The shared read/write register substrate (N flag registers + `turn`).
/// Each register holds one of a fixed list of states, given when it is
/// opened; reads and writes name a state by its index in that list.
pub trait SharedRegisters: Send + Sync {
    /// An opened register.
    type Register: Send + Sync;
    /// Open register `key`, which holds one of `states`.
    fn open(&self, key: &str, states: &[&str]) -> Self::Register;
    /// Which of its states `register` holds: `0` when it is unset (or
    /// holds none of them).
    fn read(&self, register: &Self::Register) -> usize;
    /// Set `register` to its state `state`.
    fn write(&self, register: &Self::Register, state: usize);
}

/// A flag register's states, in order: index 0 is also what an unset flag
/// reads as.
const FLAG_STATES: [&str; 3] = ["idle", "waiting", "active"];
const IDLE: usize = 0;
const WAITING: usize = 1;
const ACTIVE: usize = 2;

/// `[acquire, release]` counters for the distributed-mutex critical
/// section, resolved once per process.
fn mutex_counters() -> &'static [Arc<rndi_obs::Counter>; 2] {
    static COUNTERS: std::sync::OnceLock<[Arc<rndi_obs::Counter>; 2]> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let name = rndi_obs::metrics::names::MUTEX_EVENTS;
        ["acquire", "release"]
            .map(|event| rndi_obs::metrics::counter(name, &[("lock", "emlock"), ("event", event)]))
    })
}

/// The time by which a waiting caller gives up: `at_ms` on `clock`.
#[derive(Clone, Copy)]
pub struct Deadline<'a> {
    pub clock: &'a dyn MsClock,
    pub at_ms: u64,
}

impl Deadline<'_> {
    fn passed(&self) -> bool {
        self.clock.now_ms() >= self.at_ms
    }
}

/// One process's handle on the E&M lock: process index `me` of `n`
/// statically configured slots.
pub struct EisenbergMcGuire<R: SharedRegisters> {
    regs: R,
    lock_name: String,
    /// `flag/0` .. `flag/{n-1}`, each one of [`FLAG_STATES`].
    flags: Vec<R::Register>,
    /// `turn`, which holds a slot number, `"0"` .. `"{n-1}"`; unset, it
    /// reads as slot 0.
    turn: R::Register,
    me: usize,
    n: usize,
}

impl<R: SharedRegisters> EisenbergMcGuire<R> {
    /// `lock_name` namespaces the registers so independent locks coexist.
    pub fn new(regs: R, lock_name: &str, me: usize, n: usize) -> Self {
        assert!(me < n, "process index out of range");
        let key = |register: &str| format!("__rndi_lock/{lock_name}/{register}");
        let flags = (0..n)
            .map(|i| regs.open(&key(&format!("flag/{i}")), &FLAG_STATES))
            .collect();
        let slots: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        let slots: Vec<&str> = slots.iter().map(String::as_str).collect();
        let turn = regs.open(&key("turn"), &slots);
        EisenbergMcGuire {
            regs,
            lock_name: lock_name.to_string(),
            flags,
            turn,
            me,
            n,
        }
    }

    fn flag(&self, i: usize) -> usize {
        self.regs.read(&self.flags[i])
    }

    fn set_flag(&self, i: usize, state: usize) {
        self.regs.write(&self.flags[i], state);
    }

    fn turn(&self) -> usize {
        self.regs.read(&self.turn)
    }

    fn set_turn(&self, t: usize) {
        self.regs.write(&self.turn, t);
    }

    /// Enter the critical section (spins under contention), or give up
    /// at `deadline`, leaving this slot's flag idle.
    fn lock(&self, deadline: Option<Deadline<'_>>) -> Result<()> {
        let passed = || deadline.is_some_and(|d| d.passed());
        let give_up = || {
            self.set_flag(self.me, IDLE);
            Err(NamingError::Timeout {
                detail: format!("lock {} still held at the deadline", self.lock_name),
            })
        };
        loop {
            // Announce intent and defer to whoever holds the turn.
            self.set_flag(self.me, WAITING);
            let mut j = self.turn();
            while j != self.me {
                if self.flag(j) != IDLE {
                    if passed() {
                        return give_up();
                    }
                    j = self.turn();
                } else {
                    j = (j + 1) % self.n;
                }
            }
            // Tentatively claim.
            self.set_flag(self.me, ACTIVE);
            // Make sure nobody else claimed simultaneously.
            let mut k = 0;
            while k < self.n && (k == self.me || self.flag(k) != ACTIVE) {
                k += 1;
            }
            if k >= self.n {
                let t = self.turn();
                if t == self.me || self.flag(t) == IDLE {
                    self.set_turn(self.me);
                    mutex_counters()[0].inc();
                    return Ok(());
                }
            }
            // Lost the race; try again, while there is time.
            if passed() {
                return give_up();
            }
        }
    }

    /// Leave the critical section.
    fn unlock(&self) {
        // Pass the turn to the next non-idle process (or keep it).
        let turn = self.turn();
        let mut j = (turn + 1) % self.n;
        while j != turn && self.flag(j) == IDLE {
            j = (j + 1) % self.n;
        }
        self.set_turn(j);
        self.set_flag(self.me, IDLE);
        mutex_counters()[1].inc();
    }

    /// Run `f` inside the critical section; a typed `Timeout`, and `f`
    /// not run, when the section is still held at `deadline`.
    pub fn with<T>(
        &self,
        deadline: Option<Deadline<'_>>,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        self.lock(deadline)?;
        let out = f();
        self.unlock();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Register operation counters, for the §5.1 cost check.
    #[derive(Default)]
    struct RegisterOps {
        reads: AtomicU64,
        writes: AtomicU64,
    }

    impl RegisterOps {
        fn snapshot(&self) -> (u64, u64) {
            (
                self.reads.load(Ordering::Relaxed),
                self.writes.load(Ordering::Relaxed),
            )
        }
    }

    /// A counting wrapper around any register substrate.
    struct CountingRegisters<R> {
        inner: R,
        ops: Arc<RegisterOps>,
    }

    impl<R: SharedRegisters> SharedRegisters for CountingRegisters<R> {
        type Register = R::Register;
        fn open(&self, key: &str, states: &[&str]) -> R::Register {
            self.inner.open(key, states)
        }
        fn read(&self, register: &R::Register) -> usize {
            self.ops.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read(register)
        }
        fn write(&self, register: &R::Register, state: usize) {
            self.ops.writes.fetch_add(1, Ordering::Relaxed);
            self.inner.write(register, state);
        }
    }

    /// An in-memory register file, holding each register's text.
    #[derive(Default, Clone)]
    struct MemRegisters {
        map: Arc<parking_lot::RwLock<std::collections::HashMap<String, String>>>,
    }

    impl MemRegisters {
        /// Write `value` into register `key` directly, as another process
        /// would.
        fn set(&self, key: &str, value: &str) {
            self.map.write().insert(key.to_string(), value.to_string());
        }
    }

    impl SharedRegisters for MemRegisters {
        /// The register's key and its states.
        type Register = (String, Vec<String>);
        fn open(&self, key: &str, states: &[&str]) -> Self::Register {
            (
                key.to_string(),
                states.iter().map(|s| s.to_string()).collect(),
            )
        }
        fn read(&self, (key, states): &Self::Register) -> usize {
            let map = self.map.read();
            let held = map.get(key);
            states.iter().position(|s| Some(s) == held).unwrap_or(0)
        }
        fn write(&self, (key, states): &Self::Register, state: usize) {
            self.set(key, &states[state]);
        }
    }

    #[test]
    fn single_process_lock_unlock() {
        let regs = MemRegisters::default();
        let lock = EisenbergMcGuire::new(regs, "l", 0, 1);
        lock.lock(None).unwrap();
        lock.unlock();
        lock.with(None, || Ok(())).unwrap();
    }

    #[test]
    fn uncontended_cost_matches_paper() {
        // "3 reads and 5 writes to enter and leave a critical section in
        // the uncontended case."
        let ops = Arc::new(RegisterOps::default());
        let regs = CountingRegisters {
            inner: MemRegisters::default(),
            ops: ops.clone(),
        };
        let lock = EisenbergMcGuire::new(regs, "l", 0, 2);
        lock.lock(None).unwrap();
        lock.unlock();
        // The paper's 5 writes; its 3 reads and the two it does not count
        // (see the module doc).
        assert_eq!(ops.snapshot(), (5, 5), "uncontended (reads, writes)");
    }

    #[test]
    fn mutual_exclusion_under_threads() {
        use std::sync::atomic::AtomicI64;
        let regs = MemRegisters::default();
        let in_cs = Arc::new(AtomicI64::new(0));
        let max_seen = Arc::new(AtomicI64::new(0));
        let total = Arc::new(AtomicI64::new(0));
        let n = 4;
        let iters = 200;
        std::thread::scope(|s| {
            for me in 0..n {
                let regs = regs.clone();
                let in_cs = in_cs.clone();
                let max_seen = max_seen.clone();
                let total = total.clone();
                s.spawn(move || {
                    let lock = EisenbergMcGuire::new(regs, "shared", me, n);
                    for _ in 0..iters {
                        lock.lock(None).unwrap();
                        let now = in_cs.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(now, Ordering::SeqCst);
                        total.fetch_add(1, Ordering::SeqCst);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                        lock.unlock();
                    }
                });
            }
        });
        assert_eq!(
            max_seen.load(Ordering::SeqCst),
            1,
            "never two processes in the critical section"
        );
        assert_eq!(total.load(Ordering::SeqCst), (n * iters) as i64);
    }

    #[test]
    fn independent_lock_names_do_not_interfere() {
        let regs = MemRegisters::default();
        let a = EisenbergMcGuire::new(regs.clone(), "a", 0, 2);
        let b = EisenbergMcGuire::new(regs, "b", 0, 2);
        a.lock(None).unwrap();
        // Same slot, different lock name: no deadlock.
        b.lock(None).unwrap();
        b.unlock();
        a.unlock();
    }

    #[test]
    fn a_holder_that_never_leaves_times_a_waiter_out_at_its_deadline() {
        let clock = rndi_obs::clock::ManualClock::new();
        let deadline = Some(Deadline {
            clock: clock.as_ref(),
            at_ms: 100,
        });
        // Slot 1 died in the critical section: active, with the turn or
        // without it.
        for turn in ["1", "0"] {
            let regs = MemRegisters::default();
            regs.set("__rndi_lock/l/flag/1", "active");
            regs.set("__rndi_lock/l/turn", turn);
            let lock = EisenbergMcGuire::new(regs.clone(), "l", 0, 2);
            clock.set(100);
            let got = lock.with(deadline, || Ok("entered"));
            assert!(
                matches!(got, Err(NamingError::Timeout { .. })),
                "turn {turn}: {got:?}"
            );
            assert_eq!(lock.flag(0), IDLE, "turn {turn}: the waiter withdrew");
            // Once the holder leaves, the lock is there to take, even past
            // the deadline: only a holder makes a waiter give up.
            regs.set("__rndi_lock/l/flag/1", "idle");
            assert_eq!(lock.with(deadline, || Ok("entered")).unwrap(), "entered");
            clock.set(0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_bounds_checked() {
        EisenbergMcGuire::new(MemRegisters::default(), "x", 2, 2);
    }
}
