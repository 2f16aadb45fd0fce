//! Naming events.
//!
//! JNDI's `EventContext` lets clients register listeners for changes under a
//! name. The paper's HDNS provider implements this on top of the H2O
//! distributed event mechanism; our providers feed events through
//! [`EventHub`], a prefix-scoped dispatcher.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::name::CompositeName;
use crate::value::BoundValue;

/// What happened to a binding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventType {
    ObjectAdded,
    ObjectRemoved,
    ObjectChanged,
    ObjectRenamed,
}

/// A change notification.
#[derive(Clone, Debug)]
pub struct NamingEvent {
    pub event_type: EventType,
    /// Absolute name of the affected binding.
    pub name: CompositeName,
    /// Value before the change (for removed/changed/renamed).
    pub old: Option<BoundValue>,
    /// Value after the change (for added/changed).
    pub new: Option<BoundValue>,
}

/// Receives events. Implementations must be cheap and non-blocking; heavy
/// work should be queued elsewhere.
pub trait NamingListener: Send + Sync {
    fn on_event(&self, event: &NamingEvent);
}

/// Identifies a registration so it can be cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ListenerHandle(u64);

impl ListenerHandle {
    /// Rehydrate a handle from its raw id. Handles are process-local;
    /// this exists for layers (tests, routers) that shuttle an id around
    /// without holding the original value.
    pub fn from_raw(raw: u64) -> Self {
        ListenerHandle(raw)
    }

    /// The raw registration id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

struct Registration {
    handle: ListenerHandle,
    /// Events fire when the event name starts with this prefix.
    prefix: CompositeName,
    listener: Arc<dyn NamingListener>,
}

/// A prefix-scoped event dispatcher shared by provider implementations.
#[derive(Default)]
pub struct EventHub {
    next: AtomicU64,
    regs: RwLock<Vec<Registration>>,
}

impl EventHub {
    pub fn new() -> Self {
        EventHub::default()
    }

    /// Register `listener` for events at or under `prefix`.
    pub fn subscribe(
        &self,
        prefix: CompositeName,
        listener: Arc<dyn NamingListener>,
    ) -> ListenerHandle {
        let handle = ListenerHandle(self.next.fetch_add(1, Ordering::Relaxed));
        self.regs.write().push(Registration {
            handle,
            prefix,
            listener,
        });
        handle
    }

    /// Cancel a registration; unknown handles are ignored.
    pub fn unsubscribe(&self, handle: ListenerHandle) {
        self.regs.write().retain(|r| r.handle != handle);
    }

    /// Number of active registrations.
    pub fn len(&self) -> usize {
        self.regs.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.regs.read().is_empty()
    }

    /// Dispatch an event to every matching listener: those registered at
    /// or above its name, and — for an event at the empty name, the whole
    /// namespace replaced — every one.
    pub fn fire(&self, event: &NamingEvent) {
        let listeners: Vec<Arc<dyn NamingListener>> = {
            let regs = self.regs.read();
            regs.iter()
                .filter(|r| event.name.is_empty() || event.name.starts_with(&r.prefix))
                .map(|r| r.listener.clone())
                .collect()
        };
        for l in listeners {
            l.on_event(event);
        }
    }

    /// Convenience constructor + fire for the common cases.
    pub fn fire_added(&self, name: CompositeName, new: BoundValue) {
        self.fire(&NamingEvent {
            event_type: EventType::ObjectAdded,
            name,
            old: None,
            new: Some(new),
        });
    }

    pub fn fire_removed(&self, name: CompositeName, old: Option<BoundValue>) {
        self.fire(&NamingEvent {
            event_type: EventType::ObjectRemoved,
            name,
            old,
            new: None,
        });
    }

    pub fn fire_changed(&self, name: CompositeName, old: Option<BoundValue>, new: BoundValue) {
        self.fire(&NamingEvent {
            event_type: EventType::ObjectChanged,
            name,
            old,
            new: Some(new),
        });
    }
}

/// A listener that records events into a vector — handy in tests and small
/// tools.
#[derive(Default)]
pub struct CollectingListener {
    events: Mutex<Vec<NamingEvent>>,
}

impl CollectingListener {
    pub fn new() -> Arc<Self> {
        Arc::new(CollectingListener::default())
    }

    /// Take the events captured so far.
    pub fn drain(&self) -> Vec<NamingEvent> {
        std::mem::take(&mut self.events.lock())
    }

    pub fn count(&self) -> usize {
        self.events.lock().len()
    }
}

impl NamingListener for CollectingListener {
    fn on_event(&self, event: &NamingEvent) {
        self.events.lock().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_scoping() {
        let hub = EventHub::new();
        let all = CollectingListener::new();
        let scoped = CollectingListener::new();
        hub.subscribe(CompositeName::empty(), all.clone());
        hub.subscribe(CompositeName::from("a/b"), scoped.clone());

        hub.fire_added(CompositeName::from("a/b/c"), BoundValue::str("1"));
        hub.fire_added(CompositeName::from("a/x"), BoundValue::str("2"));

        assert_eq!(all.count(), 2);
        assert_eq!(scoped.count(), 1);
        let evs = scoped.drain();
        assert_eq!(evs[0].name.to_string(), "a/b/c");
        assert_eq!(evs[0].event_type, EventType::ObjectAdded);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let hub = EventHub::new();
        let l = CollectingListener::new();
        let h = hub.subscribe(CompositeName::empty(), l.clone());
        hub.fire_removed(CompositeName::from("x"), None);
        hub.unsubscribe(h);
        hub.fire_removed(CompositeName::from("y"), None);
        assert_eq!(l.count(), 1);
        assert!(hub.is_empty());
    }

    #[test]
    fn changed_event_carries_old_and_new() {
        let hub = EventHub::new();
        let l = CollectingListener::new();
        hub.subscribe(CompositeName::empty(), l.clone());
        hub.fire_changed(
            CompositeName::from("k"),
            Some(BoundValue::str("old")),
            BoundValue::str("new"),
        );
        let evs = l.drain();
        assert_eq!(evs[0].event_type, EventType::ObjectChanged);
        assert_eq!(evs[0].old.as_ref().unwrap().as_str(), Some("old"));
        assert_eq!(evs[0].new.as_ref().unwrap().as_str(), Some("new"));
    }

    #[test]
    fn exact_name_subscription_matches_self() {
        let hub = EventHub::new();
        let l = CollectingListener::new();
        hub.subscribe(CompositeName::from("a/b"), l.clone());
        hub.fire_removed(CompositeName::from("a/b"), None);
        hub.fire_removed(CompositeName::from("a"), None);
        assert_eq!(l.count(), 1);
    }
}
