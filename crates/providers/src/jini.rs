//! The Jini service provider (paper §5.1).
//!
//! Three impedance mismatches, three resolutions:
//!
//! * **State/object factories** — generic `<name, value, attrs>` tuples
//!   are translated into "fake Jini service stubs" on registration and
//!   back on retrieval: the stub payload is the marshalled value, the
//!   binding name and attribute set travel as Jini attribute entries.
//! * **Leases** — every registration is leased; since JNDI has no
//!   expiration concept, "the provider automatically renews leases of all
//!   entries that it has previously bound, until they are explicitly
//!   removed" (drive with [`JiniProviderContext::poll_leases`]).
//! * **Atomicity** — the LUS registration primitive always overwrites, so
//!   strict `bind` semantics are implemented with Eisenberg–McGuire
//!   mutual exclusion over lock registers stored *in the registry itself*
//!   (each register access is a full LUS round-trip — the ≥8× penalty):
//!   5 reads and 5 writes, then the existence lookup and the bind's own
//!   register, 12 registrar calls against a relaxed bind's 2. A call costs
//!   what reading or writing one item does and no more: a lock register
//!   is read by its stable id and written from an item built once per
//!   state, and its writes fire no event, so the lock allocates nothing
//!   (`tests/jini_allocs.rs` holds both counts).
//!   A strict bind waits for the lock no longer than `rndi.net.deadline-ms`
//!   on the provider's clock, when that is set, and is then a `Timeout`.
//!   Relaxed mode (`rndi.jini.bind.strict=false`) skips the lock, trading
//!   atomicity for the raw overwrite cost.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use rlus::registrar::EventRegistration;
use rlus::{
    DiscoveryRealm, Entry, EntryTemplate, Registrar, ServiceId, ServiceItem, ServiceStub,
    ServiceTemplate, SharedItem, Transition,
};

use rndi_core::attrs::{AttrMod, Attributes};
use rndi_core::context::{Binding, DirContext, NameClassPair};
use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::event::EventHub;
use rndi_core::lease::{LeaseRenewalManager, LeaseRenewer};
use rndi_core::name::CompositeName;
use rndi_core::op::{NamingOp, OpKind, OpOutcome};
use rndi_core::spi::boundary::{self, Bound};
use rndi_core::spi::search;
use rndi_core::spi::{ProviderBackend, ProviderPipeline, UrlContextFactory, WireFormat};
use rndi_core::url::RndiUrl;
use rndi_core::value::BoundValue;

use crate::common::{self, MsClock};
use crate::emlock::{Deadline, EisenbergMcGuire, SharedRegisters};

/// Entry class carrying the binding name.
const BINDING_ENTRY: &str = "RndiBinding";
/// Entry class carrying the attribute set in its field `json`, named for the
/// JSON older items hold there; it holds `Attributes::encode`, `decode` reads both.
const ATTRS_ENTRY: &str = "RndiAttrs";
/// Stub interface type marking provider-managed fake stubs.
const STUB_TYPE: &str = "RndiObject";
/// Prefix marking internal lock registers (hidden from list/search).
const LOCK_PREFIX: &str = "__rndi_lock/";
/// Stub interface type of a lock register: not [`STUB_TYPE`], so the
/// provider's event subscription never matches one.
const LOCK_TYPE: &str = "RndiLockRegister";

/// Default lease duration requested for bound entries.
const DEFAULT_LEASE_MS: u64 = 60_000;

/// Derive the stable service id for a binding name, so every client's
/// `rebind` overwrites the same registration.
fn service_id_for(name: &str) -> ServiceId {
    // FNV-1a with two different offset bases.
    fn fnv(seed: u64, s: &str) -> u64 {
        let mut h = seed;
        for b in s.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
    ServiceId::new(fnv(0xcbf29ce484222325, name), fnv(0x9e3779b97f4a7c15, name))
}

fn binding_template(name: &str) -> ServiceTemplate {
    ServiceTemplate::any().with_entry(EntryTemplate::new(BINDING_ENTRY).with("name", name))
}

fn binding_name(item: &ServiceItem) -> Option<&str> {
    item.attribute_sets
        .iter()
        .find(|e| e.class == BINDING_ENTRY)
        .and_then(|e| e.fields.get("name"))
        .map(|s| s.as_str())
}

fn item_attrs(item: &ServiceItem) -> Result<Attributes> {
    item.attribute_sets
        .iter()
        .find(|e| e.class == ATTRS_ENTRY)
        .and_then(|e| e.fields.get("json"))
        .map_or(Ok(Attributes::new()), |text| {
            Attributes::decode(text)
                .ok_or_else(|| NamingError::service("stored attributes are corrupt"))
        })
}

/// Lock registers stored as registry entries: each read/write is one LUS
/// round-trip, exactly as the paper's distributed lock pays, and no more
/// than that: a read looks the register up by the stable id its writes
/// register under, and a write registers one of the register's items,
/// built once per state.
struct RegistrarRegisters {
    registrar: Registrar,
    lease_ms: u64,
}

/// One lock register: its id template, and its item in each state.
struct LockRegister {
    by_id: ServiceTemplate,
    states: Vec<SharedItem>,
}

impl SharedRegisters for RegistrarRegisters {
    type Register = LockRegister;

    fn open(&self, key: &str, states: &[&str]) -> LockRegister {
        let id = service_id_for(key);
        let item = |state: &str| {
            let payload = common::marshal(&BoundValue::str(state)).expect("a string marshals");
            ServiceItem::new(ServiceStub::new(vec![LOCK_TYPE.to_string()], payload))
                .with_id(id)
                .with_entry(Entry::new(BINDING_ENTRY).with("name", key))
        };
        LockRegister {
            by_id: ServiceTemplate::by_id(id),
            states: states.iter().map(|s| SharedItem::from(item(s))).collect(),
        }
    }

    fn read(&self, register: &LockRegister) -> usize {
        self.registrar
            .lookup(&register.by_id)
            .and_then(|held| {
                register
                    .states
                    .iter()
                    .position(|state| state.service.payload == held.service.payload)
            })
            .unwrap_or(0)
    }

    fn write(&self, register: &LockRegister, state: usize) {
        self.registrar
            .register(register.states[state].clone(), self.lease_ms);
    }
}

/// Build a fake-stub registration from a pre-marshalled payload (binds
/// arrive wire-encoded from the pipeline's marshalling layer).
fn make_item(name: &str, payload: Vec<u8>, class_name: &str, attrs: &Attributes) -> ServiceItem {
    ServiceItem::new(ServiceStub::new(
        vec![STUB_TYPE.to_string(), class_name.to_string()],
        payload,
    ))
    .with_id(service_id_for(name))
    .with_entry(Entry::new(BINDING_ENTRY).with("name", name))
    .with_entry(Entry::new(ATTRS_ENTRY).with("json", attrs.encode()))
}

/// [`make_item`] for the provider's own plain values (lock registers,
/// tombstones) — these are always simple scalars, so encoding can't fail.
fn make_item_value(name: &str, value: &BoundValue, attrs: &Attributes) -> ServiceItem {
    let payload = common::marshal(value).expect("plain internal value marshals");
    make_item(name, payload, value.class_name(), attrs)
}

/// The paper's proposed optimization for strict bind (§5.1): "a
/// proxy-based solution should be adapted so that the necessary locking is
/// performed locally (near the Jini LUS, e.g. on the same host), exposing
/// the atomic interface to the client." The proxy co-locates with the
/// registrar, so its critical section costs a local mutex instead of 10
/// LUS round trips; clients pay one proxy round trip per bind.
pub struct AtomicBindProxy {
    registrar: Registrar,
    lock: Mutex<()>,
}

impl AtomicBindProxy {
    /// Deploy a proxy next to (i.e. sharing a host with) `registrar`.
    pub fn new(registrar: Registrar) -> Arc<Self> {
        Arc::new(AtomicBindProxy {
            registrar,
            lock: Mutex::new(()),
        })
    }

    /// Atomically register `item` under `name` unless the name is taken.
    /// Returns the registration on success, `None` when already bound.
    fn bind_if_absent(
        &self,
        name: &str,
        item: ServiceItem,
        lease_ms: u64,
    ) -> Option<rlus::ServiceRegistration> {
        let _guard = self.lock.lock();
        if self.registrar.lookup(&binding_template(name)).is_some() {
            return None;
        }
        Some(self.registrar.register(item, lease_ms))
    }
}

/// The in-process half of the strict-bind lock for `slot` of `registrar`.
/// Eisenberg–McGuire excludes distinct slots only, and every caller in this
/// process that binds through one registrar under one slot is the same E&M
/// process: they take this mutex first, so the registers arbitrate between
/// processes alone. Callers on different registrars never share it.
fn slot_mutex(registrar: &Registrar, slot: usize) -> Arc<Mutex<()>> {
    type Table = HashMap<(u64, usize), Weak<Mutex<()>>>;
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    let mut table = TABLE.get_or_init(Default::default).lock();
    table.retain(|_, m| m.strong_count() > 0);
    let key = (registrar.id(), slot);
    if let Some(m) = table.get(&key).and_then(Weak::upgrade) {
        return m;
    }
    let m = Arc::new(Mutex::new(()));
    table.insert(key, Arc::downgrade(&m));
    m
}

/// Renews registrar leases on behalf of the provider.
struct JiniLeases {
    registrar: Registrar,
    by_name: Mutex<HashMap<String, u64>>,
}

impl LeaseRenewer for JiniLeases {
    fn renew(&self, key: &str, duration_ms: u64) -> Result<u64> {
        let lease_id = self
            .by_name
            .lock()
            .get(key)
            .copied()
            .ok_or_else(|| NamingError::LeaseExpired { name: key.into() })?;
        self.registrar
            .renew_service_lease(lease_id, duration_ms)
            .map(|l| l.expires_at_ms)
            .map_err(|_| NamingError::LeaseExpired { name: key.into() })
    }
}

/// A naming backend over one Jini lookup service. Implements
/// [`ProviderBackend`]; the `Context`/`DirContext` surface comes from the
/// [`ProviderPipeline`] returned by [`JiniProviderContext::new`].
pub struct JiniProviderContext {
    registrar: Registrar,
    strict: bool,
    /// When present (and strict), atomic binds go through the co-located
    /// proxy instead of the distributed lock.
    proxy: Option<Arc<AtomicBindProxy>>,
    lease_ms: u64,
    leases: Arc<JiniLeases>,
    lease_mgr: LeaseRenewalManager,
    lock: EisenbergMcGuire<RegistrarRegisters>,
    /// Held around `lock` ([`slot_mutex`]).
    slot_mutex: Arc<Mutex<()>>,
    /// How long a strict bind waits for `lock` (`rndi.net.deadline-ms`),
    /// on `clock`; unset, it waits as long as the lock is held.
    deadline_ms: Option<u64>,
    clock: Arc<dyn MsClock>,
    hub: Arc<EventHub>,
    /// The registrar subscription that feeds `hub`. It is leased like any
    /// registration, so [`JiniProviderContext::poll_leases`] renews it too.
    events: Mutex<EventRegistration>,
    instance: String,
}

impl JiniProviderContext {
    /// Wrap a registrar. `clock` must be the same time base the registrar
    /// leases against.
    pub fn new(
        registrar: Registrar,
        clock: Arc<dyn MsClock>,
        env: Environment,
        instance: &str,
    ) -> Arc<ProviderPipeline<Self>> {
        Self::with_proxy(registrar, clock, env, instance, None)
    }

    /// Like [`JiniProviderContext::new`], with an optional co-located
    /// [`AtomicBindProxy`] for the strict-bind fast path.
    pub fn with_proxy(
        registrar: Registrar,
        clock: Arc<dyn MsClock>,
        env: Environment,
        instance: &str,
        proxy: Option<Arc<AtomicBindProxy>>,
    ) -> Arc<ProviderPipeline<Self>> {
        let strict = env.get_bool(keys::JINI_STRICT_BIND, true);
        let lease_ms = env.get_u64(keys::LEASE_MS, DEFAULT_LEASE_MS);
        let slot = env.get_u64(keys::JINI_LOCK_SLOT, 0) as usize;
        let slots = env.get_u64(keys::JINI_LOCK_SLOTS, 2) as usize;
        let deadline_ms = Some(env.get_u64(keys::NET_DEADLINE_MS, 0)).filter(|ms| *ms > 0);
        let leases = Arc::new(JiniLeases {
            registrar: registrar.clone(),
            by_name: Mutex::new(HashMap::new()),
        });
        let lease_mgr = LeaseRenewalManager::new(clock.clone(), 0.5);
        let lock = EisenbergMcGuire::new(
            RegistrarRegisters {
                registrar: registrar.clone(),
                // Lock registers live "forever" (renewed by overwriting).
                lease_ms: u64::MAX / 4,
            },
            "bind",
            slot,
            slots.max(slot + 1),
        );
        let slot_mutex = slot_mutex(&registrar, slot);
        let hub = Arc::new(EventHub::new());
        let events = Mutex::new(Self::subscribe(&registrar, &hub));
        let backend = Arc::new(JiniProviderContext {
            registrar,
            strict,
            proxy,
            lease_ms,
            leases,
            lease_mgr,
            lock,
            slot_mutex,
            deadline_ms,
            clock,
            hub,
            events,
            instance: instance.to_string(),
        });
        ProviderPipeline::standard(backend, &env)
    }

    /// Bridge registrar remote events into the provider's event hub, for
    /// as long a lease as the registrar grants. The subscription selects
    /// fake stubs only, so a lock register's write fires nothing.
    fn subscribe(registrar: &Registrar, hub: &Arc<EventHub>) -> EventRegistration {
        struct Bridge {
            hub: Arc<EventHub>,
        }
        impl rlus::ServiceListener for Bridge {
            fn notify(&self, event: &rlus::ServiceEvent) {
                let Some(name) = event.item.as_deref().and_then(binding_name) else {
                    // Removals carry no item; nothing to name the event
                    // with (a server-side limitation the provider accepts).
                    return;
                };
                let composite = CompositeName::from_components([name]);
                let value = event
                    .item
                    .as_ref()
                    .map(|i| common::unmarshal(&i.service.payload));
                match event.transition {
                    Transition::Match => self.hub.fire_added(composite, value.unwrap_or_default()),
                    Transition::Changed => {
                        self.hub
                            .fire_changed(composite, None, value.unwrap_or_default())
                    }
                    Transition::NoMatch => self.hub.fire_removed(composite, value),
                }
            }
        }
        registrar.notify(
            ServiceTemplate::by_type(STUB_TYPE).with_entry(EntryTemplate::new(BINDING_ENTRY)),
            &[Transition::Match, Transition::Changed, Transition::NoMatch],
            Arc::new(Bridge { hub: hub.clone() }),
            u64::MAX / 4,
        )
    }

    /// The one component a name in this flat namespace has.
    fn single<'n>(&self, name: &'n CompositeName) -> Result<&'n str> {
        match (name.len(), name.head().unwrap_or_default()) {
            (1, one) if one.starts_with(LOCK_PREFIX) => Err(NamingError::NoPermission {
                detail: "reserved internal name".into(),
            }),
            (1, one) if !one.is_empty() => Ok(one),
            (0 | 1, _) => Err(NamingError::invalid_name("", "empty name")),
            // The flat LUS cannot itself hold subcontexts.
            _ => Err(NamingError::NotAContext {
                name: name.to_string(),
            }),
        }
    }

    /// Answers the federation probe: the LUS is flat, so the only prefix
    /// that can be bound is the head item.
    fn bound_prefix(&self, name: &CompositeName, upto: usize) -> Option<Bound> {
        let head = name.head().filter(|_| upto > 0)?;
        let item = self.registrar.lookup(&binding_template(head))?;
        Some(Bound::leaf(1, common::unmarshal(&item.service.payload)))
    }

    fn register(
        &self,
        name: &str,
        payload: &[u8],
        class_name: &str,
        attrs: &Attributes,
    ) -> Result<()> {
        let item = make_item(name, payload.to_vec(), class_name, attrs);
        let reg = self.registrar.register(item, self.lease_ms);
        self.track_lease(name, &reg);
        Ok(())
    }

    fn track_lease(&self, name: &str, reg: &rlus::ServiceRegistration) {
        self.leases
            .by_name
            .lock()
            .insert(name.to_string(), reg.lease.id);
        self.lease_mgr.manage(
            name,
            reg.lease.expires_at_ms,
            self.lease_ms,
            self.leases.clone(),
        );
    }

    fn exists(&self, name: &str) -> bool {
        self.registrar.lookup(&binding_template(name)).is_some()
    }

    fn do_bind(
        &self,
        name: &CompositeName,
        payload: &[u8],
        class_name: &str,
        attrs: Attributes,
    ) -> Result<()> {
        let flat = self.single(name)?;
        if let (true, Some(proxy)) = (self.strict, &self.proxy) {
            // The paper's proxy optimization: one round trip, the
            // lock held locally next to the LUS.
            let item = make_item(flat, payload.to_vec(), class_name, &attrs);
            match proxy.bind_if_absent(flat, item, self.lease_ms) {
                Some(reg) => {
                    self.track_lease(flat, &reg);
                    Ok(())
                }
                None => Err(NamingError::already_bound(flat)),
            }
        } else if self.strict {
            // Distributed lock: check-and-register atomically with
            // respect to every other strict-mode client.
            let deadline = self.deadline_ms.map(|ms| Deadline {
                clock: self.clock.as_ref(),
                at_ms: self.clock.now_ms().saturating_add(ms),
            });
            let _local = self.slot_mutex.lock();
            self.lock.with(deadline, || {
                if self.exists(flat) {
                    return Err(NamingError::already_bound(flat));
                }
                self.register(flat, payload, class_name, &attrs)
            })
        } else {
            // Relaxed: unlocked check-then-act (the documented
            // single-writer trade-off).
            if self.exists(flat) {
                return Err(NamingError::already_bound(flat));
            }
            self.register(flat, payload, class_name, &attrs)
        }
    }

    fn do_rebind(
        &self,
        name: &CompositeName,
        payload: &[u8],
        class_name: &str,
        attrs: Attributes,
    ) -> Result<()> {
        self.register(self.single(name)?, payload, class_name, &attrs)
    }

    /// Drive client-side lease renewal; returns names whose leases could
    /// not be renewed (their entries have expired remotely). The pass also
    /// renews the event subscription that keeps listeners and the cache fed.
    pub fn poll_leases(&self) -> Vec<String> {
        let mut events = self.events.lock();
        let id = events.registration_id;
        if self.registrar.renew_event_lease(id, u64::MAX / 4).is_err() {
            // It lapsed between passes: drop it if unswept, subscribe again.
            let _ = self.registrar.cancel_event_lease(id);
            *events = Self::subscribe(&self.registrar, &self.hub);
        }
        drop(events);
        self.lease_mgr.poll().failed
    }

    /// Leases currently under management (diagnostics).
    pub fn managed_leases(&self) -> usize {
        self.lease_mgr.len()
    }

    fn visible_items(&self) -> Vec<ServiceItem> {
        self.registrar
            .lookup_all(
                &ServiceTemplate::any().with_entry(EntryTemplate::new(BINDING_ENTRY)),
                0,
            )
            .into_iter()
            .filter(|i| binding_name(i).is_some_and(|n| !n.starts_with(LOCK_PREFIX)))
            .collect()
    }
}

impl JiniProviderContext {
    /// Lookup returns the raw stub payload; the pipeline's marshalling
    /// layer decodes it on the way up.
    fn lookup_wire(&self, name: &CompositeName) -> Result<Vec<u8>> {
        let flat = self.single(name)?;
        let item = self
            .registrar
            .lookup(&binding_template(flat))
            .ok_or_else(|| NamingError::not_found(flat))?;
        Ok(item.service.payload.clone())
    }

    fn unbind(&self, name: &CompositeName) -> Result<()> {
        let flat = self.single(name)?;
        self.lease_mgr.unmanage(flat);
        let lease_id = self.leases.by_name.lock().remove(flat);
        match lease_id {
            Some(id) => {
                let _ = self.registrar.cancel_service_lease(id);
            }
            None => {
                // Someone else bound it; a lease we don't hold can't
                // be cancelled. Emulate removal by overwriting with
                // an already-expired registration and sweeping.
                if self.exists(flat) {
                    let item = make_item_value(flat, &BoundValue::Null, &Attributes::new());
                    self.registrar.register(item, 0);
                    self.registrar.sweep();
                }
            }
        }
        Ok(())
    }

    fn list(&self, name: &CompositeName) -> Result<Vec<NameClassPair>> {
        if !name.is_empty() {
            return Err(NamingError::NotAContext {
                name: name.to_string(),
            });
        }
        let mut out: Vec<NameClassPair> = self
            .visible_items()
            .iter()
            .map(|item| NameClassPair {
                name: binding_name(item).expect("filtered").to_string(),
                class_name: common::unmarshal(&item.service.payload)
                    .class_name()
                    .to_string(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn list_bindings(&self, name: &CompositeName) -> Result<Vec<Binding>> {
        if !name.is_empty() {
            return Err(NamingError::NotAContext {
                name: name.to_string(),
            });
        }
        let mut out: Vec<Binding> = self
            .visible_items()
            .iter()
            .map(|item| Binding {
                name: binding_name(item).expect("filtered").to_string(),
                value: common::unmarshal(&item.service.payload),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn get_attributes(&self, name: &CompositeName) -> Result<Attributes> {
        let flat = self.single(name)?;
        let item = self
            .registrar
            .lookup(&binding_template(flat))
            .ok_or_else(|| NamingError::not_found(flat))?;
        item_attrs(&item)
    }

    fn modify_attributes(&self, name: &CompositeName, mods: &[AttrMod]) -> Result<()> {
        let flat = self.single(name)?;
        let item = self
            .registrar
            .lookup(&binding_template(flat))
            .ok_or_else(|| NamingError::not_found(flat))?;
        let mut attrs = item_attrs(&item)?;
        for m in mods {
            m.apply(&mut attrs);
        }
        let id = item.service_id.expect("registered items carry ids");
        self.registrar
            .set_attributes(
                id,
                vec![
                    Entry::new(BINDING_ENTRY).with("name", flat),
                    Entry::new(ATTRS_ENTRY).with("json", attrs.encode()),
                ],
            )
            .map_err(|_| NamingError::not_found(flat))
    }
}

impl ProviderBackend for JiniProviderContext {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        boundary::run(
            op,
            |upto| Ok(self.bound_prefix(&op.name, upto)),
            || match op.kind {
                OpKind::Lookup => self.lookup_wire(&op.name).map(OpOutcome::Wire),
                OpKind::Bind | OpKind::BindWithAttrs => {
                    let (payload, class) = op.wire_value()?;
                    let attrs = op.attrs.clone().unwrap_or_default();
                    self.do_bind(&op.name, &payload, &class, attrs)
                        .map(|_| OpOutcome::Done)
                }
                OpKind::Rebind | OpKind::RebindWithAttrs => {
                    let (payload, class) = op.wire_value()?;
                    let attrs = op.attrs.clone().unwrap_or_default();
                    self.do_rebind(&op.name, &payload, &class, attrs)
                        .map(|_| OpOutcome::Done)
                }
                OpKind::Unbind => self.unbind(&op.name).map(|_| OpOutcome::Done),
                OpKind::List => self.list(&op.name).map(OpOutcome::Names),
                OpKind::ListBindings => self.list_bindings(&op.name).map(OpOutcome::Bindings),
                OpKind::GetAttributes => self.get_attributes(&op.name).map(OpOutcome::Attrs),
                OpKind::ModifyAttributes => self
                    .modify_attributes(&op.name, op.mods()?)
                    .map(|_| OpOutcome::Done),
                // The LUS matches templates, not LDAP filters: the filter is
                // evaluated client-side (capability emulation, §3).
                OpKind::Search => search::walk(self, op),
                OpKind::AddListener => Ok(OpOutcome::Subscribed(
                    self.hub.subscribe(op.name.clone(), op.listener()?),
                )),
                OpKind::RemoveListener => {
                    self.hub.unsubscribe(op.listener_handle()?);
                    Ok(OpOutcome::Done)
                }
                _ => Err(NamingError::unsupported(op.kind.label())),
            },
        )
    }

    fn provider_id(&self) -> String {
        format!("jini:{}", self.instance)
    }

    fn event_hub(&self) -> Option<Arc<EventHub>> {
        Some(self.hub.clone())
    }

    fn wire_format(&self) -> WireFormat {
        WireFormat::Encoded
    }
}

/// URL factory: `jini://host[:port]/...` resolves through a discovery
/// realm, then wraps the located registrar.
pub struct JiniFactory {
    realm: DiscoveryRealm,
    clock: Arc<dyn MsClock>,
    /// One provider pipeline per located registrar, so lease managers,
    /// event bridges, and cache/stats stacks are shared across lookups of
    /// the same URL.
    cache: Mutex<HashMap<String, Arc<ProviderPipeline<JiniProviderContext>>>>,
}

impl JiniFactory {
    pub fn new(realm: DiscoveryRealm, clock: Arc<dyn MsClock>) -> Arc<Self> {
        Arc::new(JiniFactory {
            realm,
            clock,
            cache: Mutex::new(HashMap::new()),
        })
    }
}

impl UrlContextFactory for JiniFactory {
    fn scheme(&self) -> &str {
        "jini"
    }

    fn create(&self, url: &RndiUrl, env: &Environment) -> Result<Arc<dyn DirContext>> {
        let locator =
            rlus::discovery::LookupLocator::new(url.host.clone(), url.port.unwrap_or(4160));
        let key = format!(
            "{}:{}|strict={}",
            locator.host,
            locator.port,
            env.get_bool(keys::JINI_STRICT_BIND, true)
        );
        if let Some(ctx) = self.cache.lock().get(&key) {
            return Ok(ctx.clone());
        }
        let registrar = self.realm.locate(&locator).ok_or_else(|| {
            NamingError::service(format!("no Jini lookup service at {}", url.authority()))
        })?;
        let ctx = JiniProviderContext::new(
            registrar,
            self.clock.clone(),
            env.clone(),
            &format!("{}:{}", locator.host, locator.port),
        );
        self.cache.lock().insert(key, ctx.clone());
        Ok(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlus::ManualClock;
    use rndi_core::context::{Context, ContextExt, DirContext, SearchControls};
    use rndi_core::event::CollectingListener;
    use rndi_core::filter::Filter;
    use rndi_core::value::Reference;

    fn setup(
        strict: bool,
    ) -> (
        Arc<ProviderPipeline<JiniProviderContext>>,
        Registrar,
        Arc<ManualClock>,
    ) {
        let clock = ManualClock::new();
        let registrar = Registrar::new(clock.clone(), 600_000, 9);
        let env = Environment::new().with(
            keys::JINI_STRICT_BIND,
            if strict { "true" } else { "false" },
        );
        let ctx = JiniProviderContext::new(registrar.clone(), clock.clone(), env, "test");
        (ctx, registrar, clock)
    }

    #[test]
    fn bind_lookup_roundtrip_via_fake_stub() {
        let (ctx, registrar, _) = setup(true);
        ctx.bind_str("printer", "laser-3").unwrap();
        assert_eq!(ctx.lookup_str("printer").unwrap().as_str(), Some("laser-3"));
        // The value really lives in the registry as a stub.
        let item = registrar.lookup(&binding_template("printer")).unwrap();
        assert!(item.service.implements(STUB_TYPE));
    }

    #[test]
    fn strict_bind_is_atomic() {
        let (ctx, _, _) = setup(true);
        ctx.bind_str("k", "1").unwrap();
        assert!(matches!(
            ctx.bind_str("k", "2"),
            Err(NamingError::AlreadyBound { .. })
        ));
        ctx.rebind_str("k", "2").unwrap();
        assert_eq!(ctx.lookup_str("k").unwrap().as_str(), Some("2"));
    }

    #[test]
    fn strict_bind_costs_extra_registrar_roundtrips() {
        let (strict_ctx, strict_reg, _) = setup(true);
        let (relaxed_ctx, relaxed_reg, _) = setup(false);

        strict_ctx.bind_str("a", "v").unwrap();
        relaxed_ctx.bind_str("a", "v").unwrap();

        let s = strict_reg.stats();
        let r = relaxed_reg.stats();
        let strict_ops = s.lookups + s.registrations;
        let relaxed_ops = r.lookups + r.registrations;
        assert!(
            strict_ops >= relaxed_ops + 8,
            "paper's ≥8 extra round trips: strict {strict_ops} vs relaxed {relaxed_ops}"
        );
    }

    #[test]
    fn relaxed_bind_still_detects_existing() {
        let (ctx, _, _) = setup(false);
        ctx.bind_str("k", "1").unwrap();
        assert!(matches!(
            ctx.bind_str("k", "2"),
            Err(NamingError::AlreadyBound { .. })
        ));
    }

    #[test]
    fn rebind_overwrites_same_registration() {
        let (ctx, registrar, _) = setup(false);
        ctx.rebind_str("svc", "v1").unwrap();
        ctx.rebind_str("svc", "v2").unwrap();
        assert_eq!(registrar.item_count(), 1, "stable service id overwrites");
        assert_eq!(ctx.lookup_str("svc").unwrap().as_str(), Some("v2"));
    }

    #[test]
    fn lease_renewal_keeps_binding_alive() {
        let (ctx, registrar, clock) = setup(false);
        ctx.bind_str("leased", "v").unwrap();
        // Without renewal the 60s lease would expire at t=60_000.
        for t in (10_000..=120_000).step_by(10_000) {
            clock.set(t);
            ctx.poll_leases();
            registrar.sweep();
        }
        assert_eq!(
            ctx.lookup_str("leased").unwrap().as_str(),
            Some("v"),
            "provider-side renewal kept the entry alive past 2 lease periods"
        );
    }

    #[test]
    fn without_renewal_entry_expires() {
        let (ctx, registrar, clock) = setup(false);
        ctx.bind_str("mortal", "v").unwrap();
        clock.set(120_000);
        registrar.sweep(); // no poll_leases
        assert!(matches!(
            ctx.lookup_str("mortal"),
            Err(NamingError::NameNotFound { .. })
        ));
    }

    #[test]
    fn unbind_cancels_lease_and_stops_renewal() {
        let (ctx, registrar, _) = setup(false);
        ctx.bind_str("gone", "v").unwrap();
        assert_eq!(ctx.managed_leases(), 1);
        ctx.unbind_str("gone").unwrap();
        assert_eq!(ctx.managed_leases(), 0);
        assert_eq!(registrar.item_count(), 0);
        // Unbinding again is a no-op.
        ctx.unbind_str("gone").unwrap();
    }

    #[test]
    fn unbind_foreign_binding_via_expiry_emulation() {
        let (ctx_a, registrar, clock) = setup(false);
        ctx_a.bind_str("shared", "v").unwrap();
        // A second provider context over the same registrar (no lease map
        // entry for "shared").
        let env = Environment::new().with(keys::JINI_STRICT_BIND, "false");
        let ctx_b = JiniProviderContext::new(registrar.clone(), clock, env, "b");
        ctx_b.unbind_str("shared").unwrap();
        assert!(ctx_b.lookup_str("shared").is_err());
    }

    #[test]
    fn list_and_search() {
        let (ctx, _, _) = setup(false);
        ctx.bind_with_attrs(
            &"node1".into(),
            BoundValue::str("s1"),
            common::attrs(&[("os", "linux"), ("cpu", "8")]),
        )
        .unwrap();
        ctx.bind_with_attrs(
            &"node2".into(),
            BoundValue::str("s2"),
            common::attrs(&[("os", "windows"), ("cpu", "4")]),
        )
        .unwrap();

        let names: Vec<String> = ctx
            .list_str("")
            .unwrap()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, vec!["node1", "node2"]);

        let hits = ctx
            .search(
                &CompositeName::empty(),
                &Filter::parse("(&(os=linux)(cpu>=4))").unwrap(),
                &SearchControls::default(),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "node1");
    }

    #[test]
    fn attributes_modify() {
        let (ctx, _, _) = setup(false);
        ctx.bind_with_attrs(
            &"e".into(),
            BoundValue::Null,
            common::attrs(&[("state", "up")]),
        )
        .unwrap();
        ctx.modify_attributes(
            &"e".into(),
            &[AttrMod::Replace(rndi_core::attrs::Attribute::single(
                "state", "down",
            ))],
        )
        .unwrap();
        let attrs = ctx.get_attributes(&"e".into()).unwrap();
        assert_eq!(attrs.get("state").unwrap().first_str(), Some("down"));
    }

    #[test]
    fn multi_component_name_continues_through_link() {
        let (ctx, _, _) = setup(false);
        ctx.bind(
            &"far".into(),
            BoundValue::Reference(Reference::url("hdns://host2")),
        )
        .unwrap();
        let err = ctx.lookup(&"far/deep/name".into()).unwrap_err();
        match err {
            NamingError::Continue { remaining, .. } => {
                assert_eq!(remaining.to_string(), "deep/name");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Through a plain value: NotAContext.
        ctx.bind_str("flat", "v").unwrap();
        assert!(matches!(
            ctx.lookup(&"flat/x".into()),
            Err(NamingError::NotAContext { .. })
        ));
    }

    #[test]
    fn events_bridge_to_naming_listeners() {
        let (ctx, _, _) = setup(false);
        let l = CollectingListener::new();
        ctx.add_listener(&CompositeName::empty(), l.clone())
            .unwrap();
        ctx.bind_str("watched", "1").unwrap();
        ctx.rebind_str("watched", "2").unwrap();
        let evs = l.drain();
        use rndi_core::event::EventType::*;
        let kinds: Vec<_> = evs.iter().map(|e| e.event_type).collect();
        assert_eq!(kinds, vec![ObjectAdded, ObjectChanged]);
        assert_eq!(evs[0].name.to_string(), "watched");
    }

    #[test]
    fn proxy_bind_is_atomic_and_cheap() {
        let clock = ManualClock::new();
        let registrar = Registrar::new(clock.clone(), 600_000, 9);
        let proxy = AtomicBindProxy::new(registrar.clone());
        let env = Environment::new().with(keys::JINI_STRICT_BIND, "true");
        let ctx =
            JiniProviderContext::with_proxy(registrar.clone(), clock, env, "proxied", Some(proxy));
        let before = registrar.stats();
        ctx.bind_str("k", "1").unwrap();
        let after = registrar.stats();
        // One lookup (existence check) + one register — no lock-register
        // traffic at all.
        assert_eq!(after.lookups - before.lookups, 1);
        assert_eq!(after.registrations - before.registrations, 1);

        assert!(matches!(
            ctx.bind_str("k", "2"),
            Err(NamingError::AlreadyBound { .. })
        ));
        // Lease is tracked like any other binding.
        assert_eq!(ctx.managed_leases(), 1);
        ctx.unbind_str("k").unwrap();
        assert_eq!(registrar.item_count(), 0);
    }

    #[test]
    fn proxy_bind_excludes_concurrent_winners() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let clock = ManualClock::new();
        let registrar = Registrar::new(clock, 600_000, 10);
        let proxy = AtomicBindProxy::new(registrar.clone());
        let wins = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..8 {
                let proxy = proxy.clone();
                let wins = wins.clone();
                s.spawn(move || {
                    let item = make_item_value("slot", &BoundValue::I64(t), &Attributes::new());
                    if proxy.bind_if_absent("slot", item, 60_000).is_some() {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 1, "exactly one winner");
        assert_eq!(registrar.item_count(), 1);
    }

    #[test]
    fn lock_registers_hidden_from_listing() {
        let (ctx, _, _) = setup(true);
        ctx.bind_str("visible", "v").unwrap(); // strict: creates lock entries
        let names: Vec<String> = ctx
            .list_str("")
            .unwrap()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, vec!["visible"], "lock registers filtered out");
    }
}
