//! The lookup service proper (Jini `ServiceRegistrar`).
//!
//! Key behavioural contract, faithfully mirrored from Jini because the
//! paper's provider design is a direct response to it:
//!
//! * [`Registrar::register`] **always overwrites** an existing item with
//!   the same service id ("aiming at achieving idempotency, Jini
//!   registration methods always overwrite the previous value") — there is
//!   no compare-and-set / atomic-bind primitive.
//! * Every registration and event subscription is **leased** and vanishes
//!   unless renewed ([`Registrar::sweep`] reclaims expired grants).
//! * Lookups match by [`ServiceTemplate`]; events fire on match-set
//!   transitions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{ServiceEvent, ServiceListener, Transition};
use crate::id::ServiceId;
use crate::index::ServiceIndex;
use crate::item::{Entry, ServiceItem};
use crate::lease::{Lease, LeaseError, LeaseSet};
use crate::template::ServiceTemplate;
use crate::Clock;

/// Returned by [`Registrar::register`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceRegistration {
    pub service_id: ServiceId,
    pub lease: Lease,
}

/// Returned by [`Registrar::notify`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRegistration {
    pub registration_id: u64,
    pub lease: Lease,
}

/// Aggregate counters, for experiments and diagnostics.
// Public as the type `Registrar::stats` returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistrarStats {
    pub registrations: u64,
    pub overwrites: u64,
    pub lookups: u64,
    pub events_fired: u64,
    pub leases_expired: u64,
}

struct StoredItem {
    item: ServiceItem,
    lease_id: u64,
}

struct EventReg {
    template: ServiceTemplate,
    transitions: Vec<Transition>,
    listener: Arc<dyn ServiceListener>,
    sequence: u64,
}

/// Stats live outside the item map so the read path never needs a write
/// lock just to bump a counter.
#[derive(Default)]
struct StatsCounters {
    registrations: AtomicU64,
    overwrites: AtomicU64,
    lookups: AtomicU64,
    events_fired: AtomicU64,
    leases_expired: AtomicU64,
}

struct State {
    rng: StdRng,
    items: HashMap<ServiceId, StoredItem>,
    /// Posting sets over `items`; updated under the same write lock as
    /// every `items` mutation (see `crate::index` for the coherence rule).
    index: ServiceIndex,
    service_leases: LeaseSet<ServiceId>,
    event_regs: HashMap<u64, EventReg>,
    event_leases: LeaseSet<u64>,
}

/// A lookup service instance. Cloneable handle; thread-safe.
///
/// ```
/// use rlus::{Entry, ManualClock, Registrar, ServiceItem, ServiceStub, ServiceTemplate};
///
/// let registrar = Registrar::new(ManualClock::new(), 60_000, 0);
/// let item = ServiceItem::new(ServiceStub::new(vec!["Printer".into()], vec![]))
///     .with_entry(Entry::name("laser"));
/// let reg = registrar.register(item, 60_000);
/// let found = registrar
///     .lookup(&ServiceTemplate::by_type("Printer"))
///     .expect("registered service discoverable by type");
/// assert_eq!(found.service_id, Some(reg.service_id));
/// ```
#[derive(Clone)]
pub struct Registrar {
    clock: Arc<dyn Clock>,
    state: Arc<RwLock<State>>,
    stats: Arc<StatsCounters>,
}

impl Registrar {
    /// Create a registrar. `max_lease_ms` caps every granted lease.
    pub fn new(clock: Arc<dyn Clock>, max_lease_ms: u64, seed: u64) -> Self {
        Registrar {
            clock,
            state: Arc::new(RwLock::new(State {
                rng: StdRng::seed_from_u64(seed),
                items: HashMap::new(),
                index: ServiceIndex::default(),
                service_leases: LeaseSet::new(max_lease_ms),
                event_regs: HashMap::new(),
                event_leases: LeaseSet::new(max_lease_ms),
            })),
            stats: Arc::new(StatsCounters::default()),
        }
    }

    /// Register (or overwrite) a service item.
    pub fn register(&self, mut item: ServiceItem, lease_ms: u64) -> ServiceRegistration {
        let now = self.clock.now_ms();
        let (reg, events) = {
            let mut st = self.state.write();
            self.stats.registrations.fetch_add(1, Ordering::Relaxed);
            let id = match item.service_id {
                Some(id) => id,
                None => {
                    let id = ServiceId::random(&mut st.rng);
                    item.service_id = Some(id);
                    id
                }
            };
            let old = st.items.remove(&id);
            if let Some(prev) = &old {
                self.stats.overwrites.fetch_add(1, Ordering::Relaxed);
                st.index.remove(id, &prev.item);
                let _ = st.service_leases.cancel(prev.lease_id);
            }
            let lease = st.service_leases.grant(id, lease_ms, now);
            let events =
                self.transition_events(&mut st, id, old.as_ref().map(|s| &s.item), Some(&item));
            st.index.insert(id, &item);
            st.items.insert(
                id,
                StoredItem {
                    item,
                    lease_id: lease.id,
                },
            );
            (
                ServiceRegistration {
                    service_id: id,
                    lease,
                },
                events,
            )
        };
        self.fire(events);
        reg
    }

    /// Replace the attribute entries of a registered service.
    pub fn set_attributes(&self, id: ServiceId, entries: Vec<Entry>) -> Result<(), LeaseError> {
        let events = {
            let mut st = self.state.write();
            let stored = st.items.get(&id).ok_or(LeaseError::Unknown(0))?;
            let old = stored.item.clone();
            let mut new = old.clone();
            new.attribute_sets = entries;
            let events = self.transition_events(&mut st, id, Some(&old), Some(&new));
            st.index.remove(id, &old);
            st.index.insert(id, &new);
            st.items.get_mut(&id).expect("checked above").item = new;
            events
        };
        self.fire(events);
        Ok(())
    }

    /// First item matching `template`, if any.
    pub fn lookup(&self, template: &ServiceTemplate) -> Option<ServiceItem> {
        let st = self.state.read();
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        Self::collect_matches(&st, template, 1).pop()
    }

    /// Up to `max` items matching `template` (0 = unlimited).
    ///
    /// Resolved via the secondary indexes: an explicit service id is a
    /// direct map hit, otherwise the template's type/entry constraints are
    /// intersected over posting sets and only the (usually few) candidates
    /// are verified against the full template. A wildcard template still
    /// scans — everything matches it anyway.
    pub fn lookup_all(&self, template: &ServiceTemplate, max: usize) -> Vec<ServiceItem> {
        let st = self.state.read();
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        Self::collect_matches(&st, template, max)
    }

    /// Reference implementation of [`Registrar::lookup_all`]: a linear scan
    /// over every item, bypassing the indexes. Retained as the oracle the
    /// property tests and `tests/read_path_index.rs` compare the
    /// indexed path against. Does not count toward [`RegistrarStats`].
    pub fn lookup_all_scan(&self, template: &ServiceTemplate, max: usize) -> Vec<ServiceItem> {
        let st = self.state.read();
        let iter = st
            .items
            .values()
            .map(|s| &s.item)
            .filter(|i| template.matches(i))
            .cloned();
        if max == 0 {
            iter.collect()
        } else {
            iter.take(max).collect()
        }
    }

    /// `[index, scan]` read-path counters, resolved once per process.
    fn read_path_counters() -> &'static [std::sync::Arc<rndi_obs::Counter>; 2] {
        static COUNTERS: std::sync::OnceLock<[std::sync::Arc<rndi_obs::Counter>; 2]> =
            std::sync::OnceLock::new();
        COUNTERS.get_or_init(|| {
            let name = rndi_obs::metrics::names::INDEX_READS;
            ["index", "scan"]
                .map(|path| rndi_obs::metrics::counter(name, &[("server", "rlus"), ("path", path)]))
        })
    }

    fn collect_matches(st: &State, template: &ServiceTemplate, max: usize) -> Vec<ServiceItem> {
        let cap = if max == 0 { usize::MAX } else { max };
        let mut out = Vec::new();
        if let Some(id) = template.service_id {
            // Id-constrained templates resolve to at most one item directly.
            Self::read_path_counters()[0].inc();
            if let Some(stored) = st.items.get(&id) {
                if template.matches(&stored.item) {
                    out.push(stored.item.clone());
                }
            }
            return out;
        }
        match st.index.candidates(template) {
            Some(ids) => {
                Self::read_path_counters()[0].inc();
                for id in ids {
                    let stored = st.items.get(&id).expect("index coherent with items");
                    if template.matches(&stored.item) {
                        out.push(stored.item.clone());
                        if out.len() == cap {
                            break;
                        }
                    }
                }
            }
            None => {
                Self::read_path_counters()[1].inc();
                for stored in st.items.values() {
                    if template.matches(&stored.item) {
                        out.push(stored.item.clone());
                        if out.len() == cap {
                            break;
                        }
                    }
                }
            }
        }
        out
    }

    /// Renew a service lease.
    pub fn renew_service_lease(&self, lease_id: u64, ms: u64) -> Result<Lease, LeaseError> {
        let now = self.clock.now_ms();
        self.state.write().service_leases.renew(lease_id, ms, now)
    }

    /// Cancel a service lease, removing the item (fires `NoMatch` events).
    pub fn cancel_service_lease(&self, lease_id: u64) -> Result<(), LeaseError> {
        let events = {
            let mut st = self.state.write();
            let id = st.service_leases.cancel(lease_id)?;
            let old = st.items.remove(&id);
            if let Some(prev) = &old {
                st.index.remove(id, &prev.item);
            }
            self.transition_events(&mut st, id, old.as_ref().map(|s| &s.item), None)
        };
        self.fire(events);
        Ok(())
    }

    /// Subscribe to match-set transitions for `template`.
    pub fn notify(
        &self,
        template: ServiceTemplate,
        transitions: &[Transition],
        listener: Arc<dyn ServiceListener>,
        lease_ms: u64,
    ) -> EventRegistration {
        let now = self.clock.now_ms();
        let mut st = self.state.write();
        // The registration id doubles as the lease resource: reuse the id
        // the next grant will receive, so each subscription has one id.
        let reg_id = st.event_leases.peek_next_id();
        let lease = st.event_leases.grant(reg_id, lease_ms, now);
        debug_assert_eq!(lease.id, reg_id);
        st.event_regs.insert(
            reg_id,
            EventReg {
                template,
                transitions: transitions.to_vec(),
                listener,
                sequence: 0,
            },
        );
        EventRegistration {
            registration_id: reg_id,
            lease,
        }
    }

    /// Renew an event-subscription lease.
    pub fn renew_event_lease(&self, lease_id: u64, ms: u64) -> Result<Lease, LeaseError> {
        let now = self.clock.now_ms();
        self.state.write().event_leases.renew(lease_id, ms, now)
    }

    /// Cancel an event-subscription lease.
    pub fn cancel_event_lease(&self, lease_id: u64) -> Result<(), LeaseError> {
        let mut st = self.state.write();
        let reg_id = st.event_leases.cancel(lease_id)?;
        st.event_regs.remove(&reg_id);
        Ok(())
    }

    /// Reclaim expired leases: expired services are removed (firing
    /// `NoMatch` events), expired subscriptions are dropped.
    pub fn sweep(&self) {
        let now = self.clock.now_ms();
        let events = {
            let mut st = self.state.write();
            let dead_services = st.service_leases.sweep(now);
            let mut events = Vec::new();
            for id in dead_services {
                self.stats.leases_expired.fetch_add(1, Ordering::Relaxed);
                let old = st.items.remove(&id);
                if let Some(prev) = &old {
                    st.index.remove(id, &prev.item);
                }
                events.extend(self.transition_events(
                    &mut st,
                    id,
                    old.as_ref().map(|s| &s.item),
                    None,
                ));
            }
            let dead_regs = st.event_leases.sweep(now);
            for reg_id in dead_regs {
                self.stats.leases_expired.fetch_add(1, Ordering::Relaxed);
                st.event_regs.remove(&reg_id);
            }
            events
        };
        self.fire(events);
    }

    /// Number of live registrations.
    pub fn item_count(&self) -> usize {
        self.state.read().items.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RegistrarStats {
        RegistrarStats {
            registrations: self.stats.registrations.load(Ordering::Relaxed),
            overwrites: self.stats.overwrites.load(Ordering::Relaxed),
            lookups: self.stats.lookups.load(Ordering::Relaxed),
            events_fired: self.stats.events_fired.load(Ordering::Relaxed),
            leases_expired: self.stats.leases_expired.load(Ordering::Relaxed),
        }
    }

    /// Compute the events produced by transitioning `id` from `old` to
    /// `new` across all subscriptions.
    fn transition_events(
        &self,
        st: &mut State,
        id: ServiceId,
        old: Option<&ServiceItem>,
        new: Option<&ServiceItem>,
    ) -> Vec<(Arc<dyn ServiceListener>, ServiceEvent)> {
        let mut out = Vec::new();
        for (reg_id, reg) in st.event_regs.iter_mut() {
            let was = old.is_some_and(|i| reg.template.matches(i));
            let is = new.is_some_and(|i| reg.template.matches(i));
            let transition = match (was, is) {
                (false, true) => Transition::Match,
                (true, false) => Transition::NoMatch,
                (true, true) if old != new => Transition::Changed,
                _ => continue,
            };
            if !reg.transitions.contains(&transition) {
                continue;
            }
            reg.sequence += 1;
            self.stats.events_fired.fetch_add(1, Ordering::Relaxed);
            out.push((
                reg.listener.clone(),
                ServiceEvent {
                    registration_id: *reg_id,
                    sequence: reg.sequence,
                    service_id: id,
                    transition,
                    item: is.then(|| new.expect("is implies new").clone()),
                },
            ));
        }
        out
    }

    fn fire(&self, events: Vec<(Arc<dyn ServiceListener>, ServiceEvent)>) {
        for (listener, event) in events {
            listener.notify(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BufferingListener;
    use crate::item::ServiceStub;
    use crate::template::EntryTemplate;
    use crate::ManualClock;

    fn registrar() -> (Registrar, Arc<ManualClock>) {
        let clock = ManualClock::new();
        (Registrar::new(clock.clone(), 60_000, 42), clock)
    }

    fn item(name: &str) -> ServiceItem {
        ServiceItem::new(ServiceStub::new(vec!["Svc".into()], vec![1, 2]))
            .with_entry(Entry::name(name))
    }

    #[test]
    fn register_assigns_id_and_lookup_finds() {
        let (r, _) = registrar();
        let reg = r.register(item("a"), 10_000);
        let found = r
            .lookup(
                &ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with("name", "a")),
            )
            .unwrap();
        assert_eq!(found.service_id, Some(reg.service_id));
        assert_eq!(r.item_count(), 1);
    }

    #[test]
    fn register_with_same_id_overwrites_silently() {
        let (r, _) = registrar();
        let reg1 = r.register(item("a"), 10_000);
        // Re-register under the same id with different attributes: no error,
        // previous value replaced — the Jini idempotency contract.
        let reg2 = r.register(item("b").with_id(reg1.service_id), 10_000);
        assert_eq!(reg1.service_id, reg2.service_id);
        assert_eq!(r.item_count(), 1);
        assert!(r
            .lookup(
                &ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with("name", "a"))
            )
            .is_none());
        assert!(r
            .lookup(
                &ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with("name", "b"))
            )
            .is_some());
        assert_eq!(r.stats().overwrites, 1);
    }

    #[test]
    fn lookup_all_respects_max() {
        let (r, _) = registrar();
        for i in 0..5 {
            r.register(item(&format!("s{i}")), 10_000);
        }
        assert_eq!(r.lookup_all(&ServiceTemplate::any(), 0).len(), 5);
        assert_eq!(r.lookup_all(&ServiceTemplate::any(), 3).len(), 3);
    }

    #[test]
    fn lease_expiry_removes_items() {
        let (r, clock) = registrar();
        r.register(item("x"), 1_000);
        clock.set(999);
        r.sweep();
        assert_eq!(r.item_count(), 1);
        clock.set(1_000);
        r.sweep();
        assert_eq!(r.item_count(), 0);
        assert_eq!(r.stats().leases_expired, 1);
    }

    #[test]
    fn renewal_keeps_item_alive() {
        let (r, clock) = registrar();
        let reg = r.register(item("x"), 1_000);
        clock.set(800);
        r.renew_service_lease(reg.lease.id, 1_000).unwrap();
        clock.set(1_500);
        r.sweep();
        assert_eq!(r.item_count(), 1, "renewed to t=1800");
        clock.set(1_800);
        r.sweep();
        assert_eq!(r.item_count(), 0);
    }

    #[test]
    fn cancel_removes_immediately() {
        let (r, _) = registrar();
        let reg = r.register(item("x"), 10_000);
        r.cancel_service_lease(reg.lease.id).unwrap();
        assert_eq!(r.item_count(), 0);
        assert!(matches!(
            r.cancel_service_lease(reg.lease.id),
            Err(LeaseError::Unknown(_))
        ));
    }

    #[test]
    fn events_fire_on_transitions() {
        let (r, _) = registrar();
        let l = BufferingListener::new();
        let tmpl =
            ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with("name", "watched"));
        r.notify(
            tmpl,
            &[Transition::Match, Transition::NoMatch, Transition::Changed],
            l.clone(),
            60_000,
        );

        // Non-matching registration: no event.
        r.register(item("other"), 10_000);
        assert_eq!(l.count(), 0);

        // Matching registration: Match event with the item.
        let reg = r.register(item("watched"), 10_000);
        let evs = l.drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].transition, Transition::Match);
        assert!(evs[0].item.is_some());

        // Attribute change keeping it matching: Changed.
        r.set_attributes(
            reg.service_id,
            vec![Entry::name("watched").with("extra", "1")],
        )
        .unwrap();
        let evs = l.drain();
        assert_eq!(evs[0].transition, Transition::Changed);

        // Changing away from the template: NoMatch, item absent.
        r.set_attributes(reg.service_id, vec![Entry::name("renamed")])
            .unwrap();
        let evs = l.drain();
        assert_eq!(evs[0].transition, Transition::NoMatch);
        assert!(evs[0].item.is_none());
    }

    #[test]
    fn event_sequence_numbers_increase() {
        let (r, _) = registrar();
        let l = BufferingListener::new();
        r.notify(
            ServiceTemplate::any(),
            &[Transition::Match, Transition::NoMatch],
            l.clone(),
            60_000,
        );
        let reg = r.register(item("a"), 10_000);
        r.cancel_service_lease(reg.lease.id).unwrap();
        let evs = l.drain();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].sequence < evs[1].sequence);
    }

    #[test]
    fn transition_mask_filters_events() {
        let (r, _) = registrar();
        let l = BufferingListener::new();
        r.notify(
            ServiceTemplate::any(),
            &[Transition::NoMatch],
            l.clone(),
            60_000,
        );
        let reg = r.register(item("a"), 10_000);
        assert_eq!(l.count(), 0, "Match filtered out");
        r.cancel_service_lease(reg.lease.id).unwrap();
        assert_eq!(l.count(), 1);
    }

    #[test]
    fn expired_subscription_stops_firing() {
        let (r, clock) = registrar();
        let l = BufferingListener::new();
        r.notify(
            ServiceTemplate::any(),
            &[Transition::Match],
            l.clone(),
            1_000,
        );
        clock.set(2_000);
        r.sweep();
        r.register(item("a"), 10_000);
        assert_eq!(l.count(), 0);
    }

    #[test]
    fn lease_expiry_fires_nomatch_events() {
        let (r, clock) = registrar();
        let l = BufferingListener::new();
        r.notify(
            ServiceTemplate::any(),
            &[Transition::NoMatch],
            l.clone(),
            60_000,
        );
        r.register(item("dies"), 500);
        clock.set(600);
        r.sweep();
        let evs = l.drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].transition, Transition::NoMatch);
    }

    #[test]
    fn cancel_event_lease_unsubscribes() {
        let (r, _) = registrar();
        let l = BufferingListener::new();
        let reg = r.notify(
            ServiceTemplate::any(),
            &[Transition::Match],
            l.clone(),
            60_000,
        );
        r.cancel_event_lease(reg.lease.id).unwrap();
        r.register(item("a"), 10_000);
        assert_eq!(l.count(), 0);
    }
}
