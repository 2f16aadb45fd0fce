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
//! register access is a full client/registrar round-trip.

use std::sync::Arc;

/// The shared read/write register substrate (N flag registers + `turn`).
pub trait SharedRegisters: Send + Sync {
    /// Read register `key`, returning the empty string when unset.
    fn read(&self, key: &str) -> String;
    /// Write register `key`.
    fn write(&self, key: &str, value: &str);
}

const IDLE: &str = "idle";
const WAITING: &str = "waiting";
const ACTIVE: &str = "active";

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

/// One process's handle on the E&M lock: process index `me` of `n`
/// statically configured slots.
pub struct EisenbergMcGuire<R: SharedRegisters> {
    regs: R,
    lock_name: String,
    me: usize,
    n: usize,
}

impl<R: SharedRegisters> EisenbergMcGuire<R> {
    /// `lock_name` namespaces the registers so independent locks coexist.
    pub fn new(regs: R, lock_name: &str, me: usize, n: usize) -> Self {
        assert!(me < n, "process index out of range");
        EisenbergMcGuire {
            regs,
            lock_name: lock_name.to_string(),
            me,
            n,
        }
    }

    fn flag_key(&self, i: usize) -> String {
        format!("__rndi_lock/{}/flag/{}", self.lock_name, i)
    }

    fn turn_key(&self) -> String {
        format!("__rndi_lock/{}/turn", self.lock_name)
    }

    fn flag(&self, i: usize) -> String {
        let v = self.regs.read(&self.flag_key(i));
        if v.is_empty() {
            IDLE.to_string()
        } else {
            v
        }
    }

    fn set_flag(&self, i: usize, v: &str) {
        self.regs.write(&self.flag_key(i), v);
    }

    fn turn(&self) -> usize {
        self.regs
            .read(&self.turn_key())
            .parse()
            .unwrap_or(0)
            .min(self.n - 1)
    }

    fn set_turn(&self, t: usize) {
        self.regs.write(&self.turn_key(), &t.to_string());
    }

    /// Enter the critical section (spins under contention).
    fn lock(&self) {
        loop {
            // Announce intent and defer to whoever holds the turn.
            self.set_flag(self.me, WAITING);
            let mut j = self.turn();
            while j != self.me {
                if self.flag(j) != IDLE {
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
                    return;
                }
            }
            // Lost the race; try again.
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

    /// Run `f` inside the critical section.
    pub fn with<T>(&self, f: impl FnOnce() -> T) -> T {
        self.lock();
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
        fn read(&self, key: &str) -> String {
            self.ops.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read(key)
        }
        fn write(&self, key: &str, value: &str) {
            self.ops.writes.fetch_add(1, Ordering::Relaxed);
            self.inner.write(key, value);
        }
    }

    /// An in-memory register file.
    #[derive(Default, Clone)]
    struct MemRegisters {
        map: Arc<parking_lot::RwLock<std::collections::HashMap<String, String>>>,
    }

    impl SharedRegisters for MemRegisters {
        fn read(&self, key: &str) -> String {
            self.map.read().get(key).cloned().unwrap_or_default()
        }
        fn write(&self, key: &str, value: &str) {
            self.map.write().insert(key.to_string(), value.to_string());
        }
    }

    #[test]
    fn single_process_lock_unlock() {
        let regs = MemRegisters::default();
        let lock = EisenbergMcGuire::new(regs, "l", 0, 1);
        lock.lock();
        lock.unlock();
        lock.with(|| ());
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
        lock.lock();
        lock.unlock();
        let (reads, writes) = ops.snapshot();
        assert!(writes >= 5, "at least the paper's 5 writes, got {writes}");
        assert!(reads >= 3, "at least the paper's 3 reads, got {reads}");
        assert!(
            reads <= 6 && writes <= 6,
            "uncontended case stays cheap: {reads}r/{writes}w"
        );
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
                        lock.lock();
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
        a.lock();
        // Same slot, different lock name: no deadlock.
        b.lock();
        b.unlock();
        a.unlock();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_bounds_checked() {
        EisenbergMcGuire::new(MemRegisters::default(), "x", 2, 2);
    }
}
