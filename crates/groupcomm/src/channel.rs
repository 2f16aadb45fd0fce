//! The user-facing channel (JGroups `JChannel` analogue).

use crate::addr::Addr;
use crate::cluster::Cluster;
use crate::view::View;

/// Events an application drains from its channel.
#[derive(Clone, Debug, PartialEq)]
pub enum ChannelEvent {
    /// A group multicast, delivered per the stack's ordering discipline.
    Message { from: Addr, bytes: Vec<u8> },
    /// A new membership view was installed.
    View(View),
    /// You are the coordinator and `joiner` needs the application state —
    /// answer with [`GroupChannel::provide_state`].
    StateRequest { joiner: Addr },
    /// Install this application state snapshot (you joined, or you were on
    /// the losing side of a partition).
    SetState { bytes: Vec<u8> },
    /// You were on a losing partition side; the PRIMARY_PARTITION protocol
    /// will re-synchronize your state from `coordinator` (a `SetState`
    /// follows once the coordinator answers its `StateRequest`).
    ResyncNeeded { coordinator: Addr },
    /// This member died ([`Cluster::crash`]).
    Crashed { reason: String },
}

/// Errors from send-side operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The channel has not (successfully) joined a group yet.
    NotConnected,
    /// The member is dead.
    Dead,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::NotConnected => f.write_str("channel not connected"),
            SendError::Dead => f.write_str("member is dead"),
        }
    }
}

impl std::error::Error for SendError {}

/// A handle onto one group member.
#[derive(Clone)]
pub struct GroupChannel {
    pub(crate) cluster: Cluster,
    pub(crate) addr: Addr,
}

impl GroupChannel {
    /// This member's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Join a group. The view (and any state transfer) arrives as events
    /// after the next [`Cluster::pump`].
    pub fn connect(&self, group: &str) -> Result<(), SendError> {
        self.cluster.connect(self.addr, group)
    }

    /// Leave the group.
    pub fn disconnect(&self) {
        self.cluster.disconnect(self.addr);
    }

    /// Multicast to the group under the configured ordering discipline.
    pub fn mcast(&self, bytes: Vec<u8>) -> Result<(), SendError> {
        self.cluster.mcast(self.addr, bytes)
    }

    /// Drain pending events.
    pub fn poll(&self) -> Vec<ChannelEvent> {
        self.cluster.poll(self.addr)
    }

    /// Answer a [`ChannelEvent::StateRequest`].
    pub fn provide_state(&self, to: Addr, bytes: Vec<u8>) -> Result<(), SendError> {
        self.cluster.provide_state(self.addr, to, bytes)
    }

    /// The currently installed view, if any.
    pub fn view(&self) -> Option<View> {
        self.cluster.view_of(self.addr)
    }

    /// Whether this member is alive.
    pub fn is_alive(&self) -> bool {
        self.cluster.is_alive(self.addr)
    }
}
