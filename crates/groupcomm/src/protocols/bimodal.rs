//! Bimodal multicast: per-sender FIFO delivery with gossip repair.
//!
//! Senders multicast directly; each member delivers each origin's stream
//! in contiguous per-sender order, buffering gaps. Periodic anti-entropy
//! rounds exchange digests ("my highest contiguous seq per origin") and
//! retransmit what peers are missing. Retained messages are pruned once a
//! stability digest shows all members have them (the STABLE protocol).

use std::collections::{BTreeMap, HashMap};

use crate::addr::Addr;

/// Per-member bimodal state.
#[derive(Debug, Default)]
pub struct Bimodal {
    /// My next send sequence number.
    next_sseq: u64,
    /// Retained messages per origin (for retransmission), including my own.
    store: HashMap<Addr, BTreeMap<u64, Vec<u8>>>,
    /// Highest contiguous sequence delivered per origin.
    delivered: HashMap<Addr, u64>,
}

impl Bimodal {
    pub fn new() -> Self {
        Bimodal::default()
    }

    /// Allocate the sequence number for my next multicast (and retain the
    /// message so I can serve retransmissions). Returns the sseq.
    pub fn next_send(&mut self, me: Addr, body: Vec<u8>) -> u64 {
        let sseq = self.next_sseq;
        self.next_sseq += 1;
        self.retain(me, sseq, body);
        sseq
    }

    fn retain(&mut self, origin: Addr, sseq: u64, body: Vec<u8>) {
        self.store
            .entry(origin)
            .or_default()
            .entry(sseq)
            .or_insert(body);
    }

    /// Record an incoming message; returns the bodies now deliverable from
    /// that origin, in sequence order. (The sender delivers its own
    /// messages through here too, giving uniform FIFO self-delivery.)
    pub fn on_message(&mut self, origin: Addr, sseq: u64, body: Vec<u8>) -> Vec<(u64, Vec<u8>)> {
        self.retain(origin, sseq, body);
        let mut out = Vec::new();
        let next = self.delivered.entry(origin).or_insert(0);
        let per = self.store.get(&origin).expect("retained above");
        while let Some(body) = per.get(next) {
            out.push((*next, body.clone()));
            *next += 1;
        }
        out
    }

    /// My digest: highest contiguous delivered seq per origin (exclusive —
    /// the count of delivered messages).
    pub fn digest(&self) -> Vec<(Addr, u64)> {
        let mut d: Vec<(Addr, u64)> = self.delivered.iter().map(|(a, s)| (*a, *s)).collect();
        d.sort();
        d
    }

    /// Messages I retain that `peer_digest` shows the peer has not yet
    /// delivered (gap filling).
    pub fn missing_for(&self, peer_digest: &[(Addr, u64)]) -> Vec<(Addr, u64, Vec<u8>)> {
        let peer: HashMap<Addr, u64> = peer_digest.iter().copied().collect();
        let mut out = Vec::new();
        for (origin, per) in &self.store {
            let peer_has = peer.get(origin).copied().unwrap_or(0);
            for (sseq, body) in per.range(peer_has..) {
                out.push((*origin, *sseq, body.clone()));
            }
        }
        out.sort_by_key(|(a, s, _)| (*a, *s));
        out
    }

    /// Prune retained messages that `stable` shows everyone has delivered.
    pub fn prune(&mut self, stable: &[(Addr, u64)]) {
        for (origin, up_to) in stable {
            if let Some(per) = self.store.get_mut(origin) {
                *per = per.split_off(up_to);
            }
        }
        self.store.retain(|_, per| !per.is_empty());
    }

    /// Number of retained messages (diagnostics).
    pub fn retained_count(&self) -> usize {
        self.store.values().map(|m| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_per_origin_with_gap() {
        let mut b = Bimodal::new();
        let o = Addr(7);
        assert!(b.on_message(o, 1, vec![1]).is_empty(), "gap at 0");
        let d = b.on_message(o, 0, vec![0]);
        assert_eq!(d, vec![(0, vec![0]), (1, vec![1])]);
        // Duplicate delivery suppressed.
        assert!(b.on_message(o, 0, vec![0]).is_empty());
    }

    #[test]
    fn independent_origins() {
        let mut b = Bimodal::new();
        assert_eq!(b.on_message(Addr(1), 0, vec![1]).len(), 1);
        assert_eq!(b.on_message(Addr(2), 0, vec![2]).len(), 1);
        assert!(b.on_message(Addr(2), 2, vec![9]).is_empty());
    }

    #[test]
    fn digest_and_gap_fill() {
        let mut sender = Bimodal::new();
        let me = Addr(1);
        let s0 = sender.next_send(me, vec![10]);
        let s1 = sender.next_send(me, vec![11]);
        assert_eq!((s0, s1), (0, 1));
        sender.on_message(me, 0, vec![10]);
        sender.on_message(me, 1, vec![11]);

        let mut receiver = Bimodal::new();
        // Receiver saw only message 1 (0 lost).
        receiver.on_message(me, 1, vec![11]);
        let digest = receiver.digest();
        // Receiver's contiguous point for m1 is 0 (nothing delivered).
        assert_eq!(digest, vec![(me, 0)]);

        let fill = sender.missing_for(&digest);
        assert_eq!(fill.len(), 2, "retransmit everything from 0");
        let mut delivered = Vec::new();
        for (o, s, body) in fill {
            delivered.extend(receiver.on_message(o, s, body));
        }
        assert_eq!(delivered.len(), 2);
        assert_eq!(receiver.digest(), vec![(me, 2)]);
    }

    #[test]
    fn prune_releases_memory() {
        let mut b = Bimodal::new();
        let me = Addr(1);
        let retained_bytes =
            |b: &Bimodal| -> usize { b.store.values().flatten().map(|(_, m)| m.len()).sum() };
        b.next_send(me, vec![0; 100]);
        b.next_send(me, vec![0; 100]);
        assert_eq!(retained_bytes(&b), 200);
        assert_eq!(b.retained_count(), 2);
        b.prune(&[(me, 1)]);
        assert_eq!(retained_bytes(&b), 100);
        assert_eq!(b.retained_count(), 1);
        b.prune(&[(me, 2)]);
        assert_eq!(b.retained_count(), 0);
    }

    #[test]
    fn missing_for_unknown_origin_sends_all() {
        let mut a = Bimodal::new();
        a.next_send(Addr(1), vec![5]);
        let fill = a.missing_for(&[]);
        assert_eq!(fill.len(), 1);
    }
}
