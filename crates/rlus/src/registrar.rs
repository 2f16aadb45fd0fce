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
//!   unless renewed: a read never returns an item whose lease has lapsed,
//!   and [`Registrar::sweep`] reclaims expired grants (firing their
//!   `NoMatch` events).
//! * Lookups match by [`ServiceTemplate`]; events fire on match-set
//!   transitions.
//!
//! Items are stored as [`SharedItem`]s: [`Registrar::lookup`] and every
//! event hand out the stored block itself, so a read or an event costs a
//! reference count, not a copy of the item.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{ServiceEvent, ServiceListener, Transition};
use crate::id::ServiceId;
use crate::index::ServiceIndex;
use crate::item::{Entry, ServiceItem, SharedItem};
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
    item: SharedItem,
    lease_id: u64,
    /// The lease's expiry, kept beside the item so that a read's liveness
    /// check is one comparison.
    expires_at_ms: u64,
}

impl StoredItem {
    /// The item, unless its lease has lapsed by `now_ms`.
    fn live(&self, now_ms: u64) -> Option<&SharedItem> {
        (now_ms < self.expires_at_ms).then_some(&self.item)
    }
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
    /// Unique per registrar in this process; shared by its clones.
    id: u64,
    clock: Arc<dyn Clock>,
    state: Arc<RwLock<State>>,
    stats: Arc<StatsCounters>,
}

impl Registrar {
    /// Create a registrar. `max_lease_ms` caps every granted lease.
    pub fn new(clock: Arc<dyn Clock>, max_lease_ms: u64, seed: u64) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Registrar {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
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

    /// Register (or overwrite) a service item: a plain [`ServiceItem`], or
    /// a [`SharedItem`] a caller keeps to register again without a copy.
    pub fn register(&self, item: impl Into<SharedItem>, lease_ms: u64) -> ServiceRegistration {
        let mut item = item.into();
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
                let _ = st.service_leases.cancel(prev.lease_id);
            }
            let lease = st.service_leases.grant(id, lease_ms, now);
            let old = old.map(|s| s.item);
            let events = self.transition_events(&mut st, id, old.as_ref(), Some(&item));
            st.index.replace(id, old.as_deref(), Some(&item));
            st.items.insert(
                id,
                StoredItem {
                    item,
                    lease_id: lease.id,
                    expires_at_ms: lease.expires_at_ms,
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
            let new = SharedItem::from(ServiceItem {
                attribute_sets: entries,
                ..ServiceItem::clone(&old)
            });
            let events = self.transition_events(&mut st, id, Some(&old), Some(&new));
            st.index.replace(id, Some(&old), Some(&new));
            st.items.get_mut(&id).expect("checked above").item = new;
            events
        };
        self.fire(events);
        Ok(())
    }

    /// First item matching `template`, if any: the registrar's shared
    /// copy.
    pub fn lookup(&self, template: &ServiceTemplate) -> Option<SharedItem> {
        let now = self.clock.now_ms();
        let st = self.state.read();
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        let mut found = None;
        Self::each_match(&st, template, now, |item| {
            found = Some(item.clone());
            false
        });
        found
    }

    /// Up to `max` items matching `template` (0 = unlimited), copied out.
    ///
    /// Resolved via the secondary indexes: an explicit service id is a
    /// direct map hit, otherwise the smallest posting set the template's
    /// type/entry constraints select is walked and only its (usually few)
    /// candidates are verified against the full template. A wildcard
    /// template still scans — everything matches it anyway.
    pub fn lookup_all(&self, template: &ServiceTemplate, max: usize) -> Vec<ServiceItem> {
        let now = self.clock.now_ms();
        let st = self.state.read();
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        let cap = if max == 0 { usize::MAX } else { max };
        let mut out = Vec::new();
        Self::each_match(&st, template, now, |item| {
            out.push(ServiceItem::clone(item));
            out.len() < cap
        });
        out
    }

    /// Reference implementation of [`Registrar::lookup_all`]: a linear scan
    /// over every item, bypassing the indexes. Retained as the oracle the
    /// property tests and `tests/read_path_index.rs` compare the
    /// indexed path against. Does not count toward [`RegistrarStats`].
    pub fn lookup_all_scan(&self, template: &ServiceTemplate, max: usize) -> Vec<ServiceItem> {
        let now = self.clock.now_ms();
        let st = self.state.read();
        let iter = st
            .items
            .values()
            .filter_map(|s| s.live(now))
            .filter(|i| template.matches(i))
            .map(|i| ServiceItem::clone(i));
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

    /// Hand `visit` each live item matching `template`, in service-id
    /// order on the indexed paths, until it returns `false`.
    fn each_match(
        st: &State,
        template: &ServiceTemplate,
        now_ms: u64,
        mut visit: impl FnMut(&SharedItem) -> bool,
    ) {
        let mut offer = |stored: &StoredItem| match stored.live(now_ms) {
            Some(item) if template.matches(item) => visit(item),
            _ => true,
        };
        if let Some(id) = template.service_id {
            // Id-constrained templates resolve to at most one item directly.
            Self::read_path_counters()[0].inc();
            if let Some(stored) = st.items.get(&id) {
                offer(stored);
            }
            return;
        }
        match st.index.candidates(template) {
            Some(ids) => {
                Self::read_path_counters()[0].inc();
                for id in ids {
                    if !offer(st.items.get(id).expect("index coherent with items")) {
                        break;
                    }
                }
            }
            None => {
                Self::read_path_counters()[1].inc();
                for stored in st.items.values() {
                    if !offer(stored) {
                        break;
                    }
                }
            }
        }
    }

    /// Renew a service lease.
    pub fn renew_service_lease(&self, lease_id: u64, ms: u64) -> Result<Lease, LeaseError> {
        let now = self.clock.now_ms();
        let mut st = self.state.write();
        // An unexpired lease's resource is its item, which reads judge by
        // the expiry stored beside it.
        let id = st.service_leases.resource(lease_id, now).copied();
        let lease = st.service_leases.renew(lease_id, ms, now)?;
        if let Some(stored) = id.and_then(|id| st.items.get_mut(&id)) {
            stored.expires_at_ms = lease.expires_at_ms;
        }
        Ok(lease)
    }

    /// Cancel a service lease, removing the item (fires `NoMatch` events).
    pub fn cancel_service_lease(&self, lease_id: u64) -> Result<(), LeaseError> {
        let events = {
            let mut st = self.state.write();
            let id = st.service_leases.cancel(lease_id)?;
            let old = st.items.remove(&id).map(|s| s.item);
            st.index.replace(id, old.as_deref(), None);
            self.transition_events(&mut st, id, old.as_ref(), None)
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
                let old = st.items.remove(&id).map(|s| s.item);
                st.index.replace(id, old.as_deref(), None);
                events.extend(self.transition_events(&mut st, id, old.as_ref(), None));
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

    /// Which registrar this handle talks to: equal for every clone of one
    /// registrar, distinct between any two registrars in the process.
    pub fn id(&self) -> u64 {
        self.id
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
        old: Option<&SharedItem>,
        new: Option<&SharedItem>,
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
    fn a_lapsed_lease_hides_its_item_from_every_read_before_any_sweep() {
        let (r, clock) = registrar();
        let l = BufferingListener::new();
        r.notify(
            ServiceTemplate::any(),
            &[Transition::NoMatch],
            l.clone(),
            60_000,
        );
        let reg = r.register(item("x"), 1_000);
        let templates = [
            ServiceTemplate::any(),
            ServiceTemplate::by_id(reg.service_id),
            ServiceTemplate::by_type("Svc"),
            ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with("name", "x")),
        ];
        let seen = |t: &ServiceTemplate| {
            [
                usize::from(r.lookup(t).is_some()),
                r.lookup_all(t, 0).len(),
                r.lookup_all_scan(t, 0).len(),
            ]
        };
        clock.set(999);
        for t in &templates {
            assert_eq!(seen(t), [1, 1, 1], "1 ms before expiry: {t:?}");
        }
        clock.set(1_000);
        for t in &templates {
            assert_eq!(seen(t), [0, 0, 0], "at expiry, unswept: {t:?}");
        }
        assert_eq!(r.item_count(), 1, "still held until a sweep");
        assert_eq!(l.count(), 0, "no event before the sweep");
        r.sweep();
        let evs = l.drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].transition, Transition::NoMatch);
        assert_eq!(evs[0].service_id, reg.service_id);
    }

    #[test]
    fn a_renewal_moves_the_expiry_reads_judge_by() {
        let (r, clock) = registrar();
        let reg = r.register(item("x"), 1_000);
        clock.set(800);
        r.renew_service_lease(reg.lease.id, 1_000).unwrap();
        let by_id = ServiceTemplate::by_id(reg.service_id);
        clock.set(1_799);
        assert!(r.lookup(&by_id).is_some(), "renewed to t=1800");
        clock.set(1_800);
        assert!(r.lookup(&by_id).is_none());
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
