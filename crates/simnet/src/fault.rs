//! Failure injection utilities.
//!
//! [`MemoryBudget`] models a process heap limit: components account buffer
//! bytes against it, and when allocation fails the owner is expected to
//! crash. The paper traced the HDNS write-overload crash to exactly this —
//! "internal JGroups message queues … grow without bounds, eventually
//! causing memory exhaustion and server crash".
//!
//! [`FaultPlan`] schedules scripted crash/restart/partition events against
//! a [`Network`]. Nothing outside this crate's own tests drives one yet: the
//! HDNS recovery tests and `examples/fault_tolerance.rs` crash and partition
//! replicas through `HdnsRealm`, and the figure sweeps model the Fig. 5
//! crash inside the queueing server. It is the substrate for running the
//! production membership logic under a seeded fault schedule (ROADMAP).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use crate::net::{Network, NodeId};
use crate::sched::Sim;

/// A shared memory budget (cheaply cloneable handle).
#[derive(Clone, Debug)]
pub struct MemoryBudget {
    used: Rc<Cell<u64>>,
    limit: u64,
}

impl MemoryBudget {
    /// Create a budget with the given limit in bytes.
    pub fn new(limit: u64) -> Self {
        MemoryBudget {
            used: Rc::new(Cell::new(0)),
            limit,
        }
    }

    /// An effectively unlimited budget.
    pub fn unlimited() -> Self {
        MemoryBudget::new(u64::MAX)
    }

    /// Try to reserve `bytes`; `false` (with no reservation) when the limit
    /// would be exceeded.
    pub fn try_alloc(&self, bytes: u64) -> bool {
        let used = self.used.get();
        match used.checked_add(bytes) {
            Some(next) if next <= self.limit => {
                self.used.set(next);
                true
            }
            _ => false,
        }
    }

    /// Release previously reserved bytes (saturating).
    pub fn free(&self, bytes: u64) {
        self.used.set(self.used.get().saturating_sub(bytes));
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used.get()
    }

    /// Configured limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Fraction of the budget in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.limit == 0 {
            1.0
        } else {
            self.used.get() as f64 / self.limit as f64
        }
    }
}

/// A scripted sequence of fault events against a simulated network.
pub struct FaultPlan {
    sim: Sim,
    net: Network,
}

impl FaultPlan {
    pub fn new(sim: &Sim, net: &Network) -> Self {
        FaultPlan {
            sim: sim.clone(),
            net: net.clone(),
        }
    }

    /// Crash `node` at `at` (relative to now).
    pub fn crash_at(&self, at: Duration, node: NodeId) -> &Self {
        let net = self.net.clone();
        self.sim.schedule(at, move |_| net.crash(node));
        self
    }

    /// Restart `node` at `at` (relative to now).
    pub fn restart_at(&self, at: Duration, node: NodeId) -> &Self {
        let net = self.net.clone();
        self.sim.schedule(at, move |_| net.restart(node));
        self
    }

    /// Partition the network into the given groups at `at`.
    pub fn partition_at(&self, at: Duration, groups: Vec<Vec<NodeId>>) -> &Self {
        let net = self.net.clone();
        self.sim.schedule(at, move |_| {
            let views: Vec<&[NodeId]> = groups.iter().map(|g| g.as_slice()).collect();
            net.partition(&views);
        });
        self
    }

    /// Heal all partitions at `at`.
    pub fn heal_at(&self, at: Duration) -> &Self {
        let net = self.net.clone();
        self.sim.schedule(at, move |_| net.heal());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LinkSpec;
    use crate::rng::SimRng;
    use crate::time::SimTime;

    #[test]
    fn budget_accounting() {
        let b = MemoryBudget::new(100);
        assert!(b.try_alloc(60));
        assert!(b.try_alloc(40));
        assert_eq!(b.used(), 100);
        assert!(!b.try_alloc(1), "over limit refused");
        assert_eq!(b.used(), 100, "failed alloc reserves nothing");
        b.free(50);
        assert!(b.try_alloc(30));
        assert_eq!(b.utilization(), 0.8);
    }

    #[test]
    fn budget_free_saturates() {
        let b = MemoryBudget::new(10);
        b.free(100);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn clones_share_state() {
        let a = MemoryBudget::new(10);
        let b = a.clone();
        assert!(a.try_alloc(10));
        assert!(!b.try_alloc(1));
    }

    #[test]
    fn fault_plan_executes_script() {
        let sim = Sim::new();
        let net = Network::new(&sim, SimRng::seed_from_u64(0), LinkSpec::lan());
        let a = net.add_node();
        let b = net.add_node();
        let plan = FaultPlan::new(&sim, &net);
        plan.crash_at(Duration::from_secs(1), a)
            .restart_at(Duration::from_secs(2), a)
            .partition_at(Duration::from_secs(3), vec![vec![a], vec![b]])
            .heal_at(Duration::from_secs(4));

        sim.run_until(SimTime::from_millis(1500));
        assert!(!net.is_alive(a));
        sim.run_until(SimTime::from_millis(2500));
        assert!(net.is_alive(a));
        assert!(net.reachable(a, b));
        sim.run_until(SimTime::from_millis(3500));
        assert!(!net.reachable(a, b));
        sim.run_until(SimTime::from_millis(4500));
        assert!(net.reachable(a, b));
    }
}
