//! Coordinator-based total ordering (the virtual-synchrony suite's
//! SEQUENCER protocol).
//!
//! Multicasts are forwarded to the coordinator, which stamps a global
//! sequence number; every member delivers strictly in stamp order,
//! buffering out-of-order arrivals.

use std::collections::BTreeMap;

use crate::addr::Addr;

/// Per-member sequencer state (coordinator role included).
#[derive(Debug, Default)]
pub struct Sequencer {
    /// Next stamp to assign (meaningful only at the coordinator).
    next_stamp: u64,
    /// Next gseq this member will deliver.
    next_deliver: u64,
    /// Out-of-order buffer.
    pending: BTreeMap<u64, (Addr, Vec<u8>)>,
}

impl Sequencer {
    pub fn new() -> Self {
        Sequencer::default()
    }

    /// Coordinator: stamp a forwarded multicast.
    pub fn assign(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    /// Member: accept an ordered message; returns everything now
    /// deliverable, in order.
    pub fn on_ordered(&mut self, gseq: u64, origin: Addr, body: Vec<u8>) -> Vec<(Addr, Vec<u8>)> {
        if gseq >= self.next_deliver {
            self.pending.insert(gseq, (origin, body));
        }
        let mut out = Vec::new();
        while let Some(entry) = self.pending.remove(&self.next_deliver) {
            out.push(entry);
            self.next_deliver += 1;
        }
        out
    }

    /// Reset on view installation: a new view starts a new stamp epoch.
    pub fn reset(&mut self) {
        self.next_stamp = 0;
        self.next_deliver = 0;
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery() {
        let mut s = Sequencer::new();
        assert_eq!(s.assign(), 0);
        assert_eq!(s.assign(), 1);
        let d = s.on_ordered(0, Addr(1), vec![0]);
        assert_eq!(d.len(), 1);
        let d = s.on_ordered(1, Addr(2), vec![1]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn out_of_order_buffers_until_gap_fills() {
        let mut s = Sequencer::new();
        assert!(s.on_ordered(2, Addr(1), vec![2]).is_empty());
        assert!(s.on_ordered(1, Addr(1), vec![1]).is_empty());
        assert_eq!(s.pending.len(), 2);
        let d = s.on_ordered(0, Addr(1), vec![0]);
        assert_eq!(d.len(), 3);
        assert_eq!(
            d.iter().map(|(_, b)| b[0]).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(s.pending.len(), 0);
    }

    #[test]
    fn duplicates_and_stale_ignored() {
        let mut s = Sequencer::new();
        assert_eq!(s.on_ordered(0, Addr(1), vec![0]).len(), 1);
        assert!(s.on_ordered(0, Addr(1), vec![0]).is_empty(), "stale");
    }

    #[test]
    fn reset_starts_new_epoch() {
        let mut s = Sequencer::new();
        s.assign();
        s.on_ordered(0, Addr(1), vec![0]);
        s.reset();
        assert_eq!(s.assign(), 0);
        assert_eq!(s.on_ordered(0, Addr(1), vec![9]).len(), 1);
    }
}
