//! The discrete-event scheduler.
//!
//! [`Sim`] is a cheaply cloneable handle onto a single-threaded event loop.
//! Simulation actors capture a `Sim` (plus `Rc`s of their own state) inside
//! `FnOnce` callbacks scheduled at future virtual instants. Events scheduled
//! for the same instant fire in scheduling order (FIFO), which keeps runs
//! deterministic.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;
use std::time::Duration;

use crate::time::SimTime;

/// Identifies a scheduled event so it can be cancelled before it fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

type Callback = Box<dyn FnOnce(&Sim)>;

struct Entry {
    key: Reverse<(SimTime, u64)>,
    id: EventId,
    callback: Callback,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[derive(Default)]
struct Core {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Entry>,
    cancelled: HashSet<EventId>,
    executed: u64,
}

/// Handle to the simulation: clock access plus event scheduling.
///
/// Cloning a `Sim` clones the handle, not the world; all clones share the
/// same event queue and clock.
#[derive(Clone, Default)]
pub struct Sim {
    core: Rc<RefCell<Core>>,
}

impl Sim {
    /// Create a fresh simulation whose clock reads [`SimTime::ZERO`].
    pub fn new() -> Self {
        Sim::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Number of events executed so far (diagnostics).
    // Kept public: the crate's property test compares runs by it.
    pub fn events_executed(&self) -> u64 {
        self.core.borrow().executed
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        let core = self.core.borrow();
        core.queue.len() - core.cancelled.len().min(core.queue.len())
    }

    /// Schedule `callback` to run `delay` after the current instant.
    pub fn schedule<F>(&self, delay: Duration, callback: F) -> EventId
    where
        F: FnOnce(&Sim) + 'static,
    {
        let at = self.now() + delay;
        self.schedule_at(at, callback)
    }

    /// Schedule `callback` at an absolute virtual instant. Instants in the
    /// past are clamped to "now" (the event still runs, immediately after
    /// already-queued events for the current instant).
    fn schedule_at<F>(&self, at: SimTime, callback: F) -> EventId
    where
        F: FnOnce(&Sim) + 'static,
    {
        let mut core = self.core.borrow_mut();
        let at = at.max(core.now);
        let seq = core.next_seq;
        core.next_seq += 1;
        let id = EventId(seq);
        core.queue.push(Entry {
            key: Reverse((at, seq)),
            id,
            callback: Box::new(callback),
        });
        id
    }

    /// Cancel a pending event. Cancelling an event that already fired (or was
    /// already cancelled) is a no-op.
    pub fn cancel(&self, id: EventId) {
        self.core.borrow_mut().cancelled.insert(id);
    }

    /// Run events until the queue is empty. Returns the final clock value.
    pub fn run(&self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Run events with timestamps `<= deadline`. The clock is left at
    /// `deadline` (or at the last event time if the queue drained first and
    /// the deadline is `SimTime::MAX`).
    pub fn run_until(&self, deadline: SimTime) -> SimTime {
        loop {
            let (callback, at) = {
                let mut core = self.core.borrow_mut();
                let Some(head) = core.queue.peek() else {
                    break;
                };
                let Reverse((at, _)) = head.key;
                if at > deadline {
                    break;
                }
                let entry = core.queue.pop().expect("peeked entry vanished");
                if core.cancelled.remove(&entry.id) {
                    continue;
                }
                core.now = at;
                core.executed += 1;
                (entry.callback, at)
            };
            debug_assert!(at <= deadline);
            callback(self);
        }
        if deadline != SimTime::MAX {
            let mut core = self.core.borrow_mut();
            core.now = core.now.max(deadline);
        }
        self.now()
    }

    /// Advance the clock by `step`, running everything due in the window.
    pub fn step(&self, step: Duration) -> SimTime {
        let deadline = self.now() + step;
        self.run_until(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        for (delay_ms, tag) in [(30u64, 3u32), (10, 1), (20, 2)] {
            let log = log.clone();
            sim.schedule(Duration::from_millis(delay_ms), move |_| {
                log.borrow_mut().push(tag)
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn same_instant_is_fifo() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        for tag in 0..5u32 {
            let log = log.clone();
            sim.schedule(Duration::from_millis(5), move |_| {
                log.borrow_mut().push(tag)
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_scheduling_from_callbacks() {
        let sim = Sim::new();
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        sim.schedule(Duration::from_millis(1), move |sim| {
            *h.borrow_mut() += 1;
            let h2 = h.clone();
            sim.schedule(Duration::from_millis(1), move |_| {
                *h2.borrow_mut() += 1;
            });
        });
        sim.run();
        assert_eq!(*hits.borrow(), 2);
        assert_eq!(sim.now(), SimTime::from_millis(2));
    }

    #[test]
    fn cancellation_suppresses_event() {
        let sim = Sim::new();
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        let id = sim.schedule(Duration::from_millis(1), move |_| {
            *h.borrow_mut() += 1;
        });
        sim.cancel(id);
        sim.run();
        assert_eq!(*hits.borrow(), 0);
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new();
        let hits = Rc::new(RefCell::new(0u32));
        for ms in [10u64, 20, 30] {
            let h = hits.clone();
            sim.schedule(Duration::from_millis(ms), move |_| {
                *h.borrow_mut() += 1;
            });
        }
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(*hits.borrow(), 2);
        assert_eq!(sim.now(), SimTime::from_millis(20));
        sim.run();
        assert_eq!(*hits.borrow(), 3);
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let sim = Sim::new();
        sim.schedule(Duration::from_millis(10), |sim| {
            // Absolute instant in the past: clamped, still runs.
            let hit = Rc::new(RefCell::new(false));
            let h = hit.clone();
            sim.schedule_at(SimTime::ZERO, move |sim| {
                *h.borrow_mut() = true;
                assert_eq!(sim.now(), SimTime::from_millis(10));
            });
        });
        sim.run();
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    fn step_advances_clock_even_when_idle() {
        let sim = Sim::new();
        sim.step(Duration::from_secs(2));
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }
}
