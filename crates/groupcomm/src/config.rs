//! Stack configuration — the JGroups "protocol stack file" analogue.

/// Multicast ordering/reliability discipline.
#[derive(Clone, Debug, PartialEq)]
pub enum OrderingMode {
    /// Virtual-synchrony suite: every multicast is forwarded to the
    /// coordinator, stamped with a global sequence number, and delivered
    /// in that order at every member. Atomic, totally ordered — and the
    /// coordinator is the throughput bottleneck ("the entire group is only
    /// as fast as its slowest member").
    Sequencer,
    /// Bimodal-multicast suite: senders multicast directly (per-sender
    /// FIFO), messages may be lost with probability `loss`, and periodic
    /// gossip rounds repair gaps. Scalable, probabilistically reliable —
    /// what the paper's HDNS ran; [`StackConfig::default`] is the sequencer.
    Bimodal {
        /// Per-message loss probability on the initial multicast.
        loss: f64,
        /// Peers contacted per gossip round.
        fanout: usize,
    },
}

/// Per-channel stack configuration.
#[derive(Clone, Debug)]
pub struct StackConfig {
    pub ordering: OrderingMode,
    /// Maximum queued inbound messages before flow control reacts;
    /// `None` = unbounded (the paper-faithful, crash-prone setting).
    pub inbox_bound: Option<usize>,
    /// Process memory budget for retained/queued message bytes; exceeding
    /// it crashes the member (memory exhaustion). `None` = unlimited.
    pub memory_limit: Option<u64>,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            ordering: OrderingMode::Sequencer,
            inbox_bound: None,
            memory_limit: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = StackConfig::default();
        assert_eq!(c.ordering, OrderingMode::Sequencer);
        assert!(c.inbox_bound.is_none());
        assert!(c.memory_limit.is_none());
    }
}
