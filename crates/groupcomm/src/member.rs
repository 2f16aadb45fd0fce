//! The sans-IO per-member protocol engine.
//!
//! [`MemberCore`] is one group member's protocol state — sequencer,
//! bimodal store, installed view, pending events — with **no transport
//! attached**. Every operation consumes a [`Wire`] (or an application
//! request) and returns the [`Outgoing`] messages it wants sent; the
//! caller decides how they travel. The deterministic in-process
//! [`Cluster`](crate::cluster::Cluster) drives cores through its seeded
//! FIFO, and `rndi-cluster` drives the *same* cores over real TCP — the
//! simnet tests stay the oracle for the protocol logic both share.

use std::collections::VecDeque;

use crate::addr::Addr;
use crate::channel::{ChannelEvent, SendError};
use crate::config::OrderingMode;
use crate::protocols::bimodal::Bimodal;
use crate::protocols::sequencer::Sequencer;
use crate::view::View;
use crate::wire::Wire;

/// A wire message the core wants delivered to `to`.
#[derive(Clone, Debug)]
pub struct Outgoing {
    pub to: Addr,
    pub wire: Wire,
}

/// One member's protocol state machine, transport-agnostic.
pub struct MemberCore {
    me: Addr,
    ordering: OrderingMode,
    view: Option<View>,
    seq: Sequencer,
    bim: Bimodal,
    events: VecDeque<ChannelEvent>,
}

impl MemberCore {
    pub fn new(me: Addr, ordering: OrderingMode) -> MemberCore {
        MemberCore {
            me,
            ordering,
            view: None,
            seq: Sequencer::new(),
            bim: Bimodal::new(),
            events: VecDeque::new(),
        }
    }

    /// This member's address.
    pub fn me(&self) -> Addr {
        self.me
    }

    /// The currently installed view, if any.
    pub fn view(&self) -> Option<&View> {
        self.view.as_ref()
    }

    /// Drop the installed view (leave / crash).
    pub fn clear_view(&mut self) {
        self.view = None;
    }

    /// Queue an event for the application (used by drivers for
    /// transport-level conditions like [`ChannelEvent::Crashed`]).
    pub fn push_event(&mut self, event: ChannelEvent) {
        self.events.push_back(event);
    }

    /// Drain pending application events.
    pub fn take_events(&mut self) -> Vec<ChannelEvent> {
        self.events.drain(..).collect()
    }

    /// Multicast `bytes` to the group under the configured ordering.
    ///
    /// Returns one [`Outgoing`] per target; for bimodal stacks the
    /// *transport* applies loss per target (the core proposes the full
    /// fan-out in view-member order).
    pub fn mcast(&mut self, bytes: Vec<u8>) -> Result<Vec<Outgoing>, SendError> {
        let view = self.view.as_ref().ok_or(SendError::NotConnected)?;
        let mut out = Vec::new();
        match self.ordering {
            OrderingMode::Sequencer => {
                // Forward to the coordinator (possibly myself) for stamping.
                out.push(Outgoing {
                    to: view.coordinator(),
                    wire: Wire::Forward {
                        origin: self.me,
                        body: bytes,
                    },
                });
            }
            OrderingMode::Bimodal { .. } => {
                let sseq = self.bim.next_send(self.me, bytes.clone());
                for &m in &view.members {
                    out.push(Outgoing {
                        to: m,
                        wire: Wire::Gossip {
                            origin: self.me,
                            sseq,
                            body: bytes.clone(),
                        },
                    });
                }
            }
        }
        Ok(out)
    }

    /// Answer a [`ChannelEvent::StateRequest`] with a state snapshot.
    pub fn provide_state(&self, to: Addr, bytes: Vec<u8>) -> Outgoing {
        Outgoing {
            to,
            wire: Wire::State { bytes },
        }
    }

    /// Process one inbound wire message; returns follow-up sends.
    pub fn on_wire(&mut self, from: Addr, wire: Wire) -> Vec<Outgoing> {
        let mut out = Vec::new();
        match wire {
            Wire::Forward { origin, body } => {
                // I am (supposed to be) the coordinator: stamp + multicast.
                let Some(view) = self.view.as_ref() else {
                    return out;
                };
                if view.coordinator() != self.me {
                    // Stale coordinator info at the sender: re-forward.
                    out.push(Outgoing {
                        to: view.coordinator(),
                        wire: Wire::Forward { origin, body },
                    });
                    return out;
                }
                let gseq = self.seq.assign();
                for &m in &view.members {
                    out.push(Outgoing {
                        to: m,
                        wire: Wire::Ordered {
                            gseq,
                            origin,
                            body: body.clone(),
                        },
                    });
                }
            }
            Wire::Ordered { gseq, origin, body } => {
                for (from, bytes) in self.seq.on_ordered(gseq, origin, body) {
                    self.events.push_back(ChannelEvent::Message { from, bytes });
                }
            }
            Wire::Gossip { origin, sseq, body } => {
                for (_s, bytes) in self.bim.on_message(origin, sseq, body) {
                    self.events.push_back(ChannelEvent::Message {
                        from: origin,
                        bytes,
                    });
                }
            }
            Wire::DigestPush { entries } => {
                let missing = self.bim.missing_for(&entries);
                if !missing.is_empty() {
                    out.push(Outgoing {
                        to: from,
                        wire: Wire::Retransmit { messages: missing },
                    });
                }
            }
            Wire::Retransmit { messages } => {
                for (origin, sseq, body) in messages {
                    for (_s, bytes) in self.bim.on_message(origin, sseq, body) {
                        self.events.push_back(ChannelEvent::Message {
                            from: origin,
                            bytes,
                        });
                    }
                }
            }
            Wire::InstallView(view) => {
                self.install_view(view);
            }
            Wire::State { bytes } => {
                self.events.push_back(ChannelEvent::SetState { bytes });
            }
        }
        out
    }

    /// Install a view: reset ordering state, emit the view event, and (as
    /// coordinator) request state on behalf of every newcomer; members
    /// whose previous view lacked the new coordinator learn they lost the
    /// primary-partition decision.
    ///
    /// The lineage never runs backwards: a view whose seq is below the
    /// installed one changes nothing. A candidate healed out of a minority
    /// partition keeps re-asserting its stale view until gossip catches it
    /// up, and installing that would roll a majority-side member back.
    pub fn install_view(&mut self, view: View) {
        if self
            .view
            .as_ref()
            .is_some_and(|cur| view.id.seq < cur.id.seq)
        {
            return;
        }
        let prev = self.view.replace(view.clone());
        if prev.as_ref().is_some_and(|p| p.id == view.id) {
            return; // already installed
        }
        self.seq.reset();
        self.events.push_back(ChannelEvent::View(view.clone()));
        let i_coordinate = view.coordinator() == self.me;
        if i_coordinate {
            // Ask me for state on behalf of every newcomer.
            let newcomers: Vec<Addr> = view
                .members
                .iter()
                .copied()
                .filter(|m| {
                    *m != self.me
                        && match &prev {
                            Some(p) => !p.contains(*m),
                            None => true,
                        }
                })
                .collect();
            for j in newcomers {
                self.events
                    .push_back(ChannelEvent::StateRequest { joiner: j });
            }
        } else if let Some(p) = &prev {
            if !p.contains(view.coordinator()) {
                // My old side lost the primary-partition decision.
                self.events.push_back(ChannelEvent::ResyncNeeded {
                    coordinator: view.coordinator(),
                });
            }
        }
    }

    // --------------------------------------------------------------
    // Bimodal anti-entropy surface (drivers run the gossip schedule)
    // --------------------------------------------------------------

    /// "My highest contiguous seq per origin is …" — push to peers.
    pub fn digest(&self) -> Vec<(Addr, u64)> {
        self.bim.digest()
    }

    /// Prune retained messages the whole group is known to have.
    pub fn prune(&mut self, stable: &[(Addr, u64)]) {
        self.bim.prune(stable)
    }

    /// Messages retained for retransmission.
    pub fn retained_count(&self) -> usize {
        self.bim.retained_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(seq: u64, members: &[u64]) -> View {
        View::new(seq, members.iter().map(|m| Addr(*m)).collect())
    }

    #[test]
    fn sequencer_core_roundtrip_without_transport() {
        let mut a = MemberCore::new(Addr(1), OrderingMode::Sequencer);
        let mut b = MemberCore::new(Addr(2), OrderingMode::Sequencer);
        a.install_view(view(1, &[1, 2]));
        b.install_view(view(1, &[1, 2]));
        a.take_events();
        b.take_events();

        // b multicasts: Forward goes to the coordinator a.
        let out = b.mcast(b"hi".to_vec()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, Addr(1));

        // a stamps and fans out Ordered to both members.
        let fan = a.on_wire(Addr(2), out[0].wire.clone());
        assert_eq!(fan.len(), 2);
        for o in fan {
            let core = if o.to == Addr(1) { &mut a } else { &mut b };
            assert!(core.on_wire(Addr(1), o.wire).is_empty());
        }
        for core in [&mut a, &mut b] {
            let evs = core.take_events();
            assert!(evs
                .iter()
                .any(|e| matches!(e, ChannelEvent::Message { bytes, .. } if bytes == b"hi")));
        }
    }

    #[test]
    fn stale_coordinator_reforwards() {
        let mut b = MemberCore::new(Addr(2), OrderingMode::Sequencer);
        b.install_view(view(3, &[1, 2]));
        b.take_events();
        // b is not the coordinator; a Forward sent to it bounces onward.
        let out = b.on_wire(
            Addr(3),
            Wire::Forward {
                origin: Addr(3),
                body: vec![9],
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, Addr(1));
    }

    #[test]
    fn coordinator_requests_state_for_newcomers() {
        let mut a = MemberCore::new(Addr(1), OrderingMode::Sequencer);
        a.install_view(view(1, &[1]));
        a.take_events();
        a.install_view(view(2, &[1, 2]));
        let evs = a.take_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, ChannelEvent::StateRequest { joiner } if *joiner == Addr(2))));
    }

    #[test]
    fn losing_side_told_to_resync() {
        let mut c = MemberCore::new(Addr(3), OrderingMode::Sequencer);
        c.install_view(view(2, &[2, 3]));
        c.take_events();
        // Merged view coordinated by 1, absent from c's previous view.
        c.install_view(view(3, &[1, 2, 3]));
        let evs = c.take_events();
        assert!(evs.iter().any(
            |e| matches!(e, ChannelEvent::ResyncNeeded { coordinator } if *coordinator == Addr(1))
        ));
    }

    #[test]
    fn a_lower_seq_view_after_a_higher_one_changes_nothing() {
        let mut b = MemberCore::new(Addr(2), OrderingMode::Sequencer);
        b.install_view(view(5, &[2, 3]));
        b.take_events();
        // The old coordinator, healed out of its minority, re-asserts.
        assert!(b
            .on_wire(Addr(1), Wire::InstallView(view(3, &[1, 2, 3])))
            .is_empty());
        assert_eq!(b.view(), Some(&view(5, &[2, 3])));
        assert!(b.take_events().is_empty(), "no view event, no resync");
    }

    #[test]
    fn bimodal_digest_push_pulls_retransmit() {
        let cfg = OrderingMode::Bimodal {
            loss: 0.0,
            fanout: 1,
        };
        let mut a = MemberCore::new(Addr(1), cfg.clone());
        let mut b = MemberCore::new(Addr(2), cfg);
        a.install_view(view(1, &[1, 2]));
        b.install_view(view(1, &[1, 2]));
        a.take_events();
        b.take_events();
        // a sends but the transport "loses" b's copy entirely.
        let out = a.mcast(vec![7]).unwrap();
        assert_eq!(out.len(), 2, "full fan-out proposed in member order");
        // b pushes its (empty) digest; a answers with a retransmission.
        let push = Wire::DigestPush {
            entries: b.digest(),
        };
        let answer = a.on_wire(Addr(2), push);
        assert_eq!(answer.len(), 1);
        assert!(b.on_wire(Addr(1), answer[0].wire.clone()).is_empty());
        let evs = b.take_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, ChannelEvent::Message { bytes, .. } if bytes == &vec![7])));
    }
}
