//! Remote events (Jini `ServiceRegistrar.notify`).
//!
//! A client registers a template plus a transition mask; the registrar
//! fires an event whenever a service's membership in the template's match
//! set changes.

use std::sync::Arc;

use crate::id::ServiceId;
use crate::item::SharedItem;

/// Match-set transition kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transition {
    /// Item entered the match set (registered or changed into matching).
    Match,
    /// Item left the match set (deleted, expired, or changed away).
    NoMatch,
    /// Item changed while remaining in the match set.
    Changed,
}

/// An event delivered to a subscriber.
#[derive(Clone, Debug)]
pub struct ServiceEvent {
    /// Identifies the subscription that produced the event.
    pub registration_id: u64,
    /// Monotonically increasing per subscription.
    pub sequence: u64,
    pub service_id: ServiceId,
    pub transition: Transition,
    /// The item after the transition (absent for `NoMatch`, mirroring the
    /// Jini behaviour of delivering `null` for deleted items): the
    /// registrar's own shared copy, not a clone.
    pub item: Option<SharedItem>,
}

/// Receives service events. Must be cheap and non-blocking.
pub trait ServiceListener: Send + Sync {
    fn notify(&self, event: &ServiceEvent);
}

/// A listener that buffers events — convenient for polling clients and
/// tests.
#[derive(Default)]
pub struct BufferingListener {
    events: parking_lot::Mutex<Vec<ServiceEvent>>,
}

impl BufferingListener {
    pub fn new() -> Arc<Self> {
        Arc::new(BufferingListener::default())
    }

    pub fn drain(&self) -> Vec<ServiceEvent> {
        std::mem::take(&mut self.events.lock())
    }

    pub fn count(&self) -> usize {
        self.events.lock().len()
    }
}

impl ServiceListener for BufferingListener {
    fn notify(&self, event: &ServiceEvent) {
        self.events.lock().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffering_listener_accumulates() {
        let l = BufferingListener::new();
        let ev = ServiceEvent {
            registration_id: 1,
            sequence: 1,
            service_id: ServiceId::new(0, 1),
            transition: Transition::Match,
            item: None,
        };
        l.notify(&ev);
        l.notify(&ev);
        assert_eq!(l.count(), 2);
        assert_eq!(l.drain().len(), 2);
        assert_eq!(l.count(), 0);
    }
}
