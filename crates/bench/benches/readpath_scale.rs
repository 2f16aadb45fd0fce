//! Read-path scaling: indexed lookups/searches vs the retained linear-scan
//! oracles, across directory sizes — plus the federated fan-out latency
//! profile (pool width 1 vs 8 against deliberately slow mounts) and a
//! client-thread sweep over the registrar's read lock.
//!
//! The headline claims this backs (`cargo bench -p rndi-bench --bench
//! readpath_scale` prints the numbers):
//! indexed registrar lookup is near-flat in directory size (≥10× over the
//! scan at 100k items), LDAP subtree search rides the equality index, and
//! federated subtree search costs ~max (not sum) of per-mount latencies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use dirserv::{Dit, Dn, LdapEntry, LdapFilter, Scope};
use rlus::{
    Entry, EntryTemplate, ManualClock, Registrar, ServiceItem, ServiceStub, ServiceTemplate,
};
use rndi_core::attrs::Attributes;
use rndi_core::context::{Context, DirContext, SearchControls, SearchScope};
use rndi_core::env::{keys, Environment};
use rndi_core::federation::FederatedContext;
use rndi_core::filter::Filter;
use rndi_core::mem::MemContext;
use rndi_core::name::CompositeName;
use rndi_core::spi::ProviderRegistry;
use rndi_core::value::BoundValue;

const SIZES: [usize; 3] = [1_000, 10_000, 100_000];

fn populated_registrar(n: usize) -> Registrar {
    let clock = ManualClock::new();
    let registrar = Registrar::new(clock, u64::MAX / 4, 1);
    for i in 0..n {
        let item = ServiceItem::new(ServiceStub::new(
            vec![format!("Type{}", i % 16), "Svc".to_string()],
            vec![(i % 251) as u8],
        ))
        .with_entry(Entry::name(format!("svc-{i}")));
        registrar.register(item, u64::MAX / 8);
    }
    registrar
}

fn bench_registrar_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("registrar_lookup");
    for n in SIZES {
        let registrar = populated_registrar(n);
        // A selective template: one Name entry → one posting-set probe.
        let template = ServiceTemplate::any()
            .with_entry(EntryTemplate::new("Name").with("name", format!("svc-{}", n / 2)));
        group.bench_function(&format!("indexed/{n}"), |b| {
            b.iter(|| {
                registrar
                    .lookup_all(std::hint::black_box(&template), usize::MAX)
                    .len()
            })
        });
        group.bench_function(&format!("scan/{n}"), |b| {
            b.iter(|| {
                registrar
                    .lookup_all_scan(std::hint::black_box(&template), usize::MAX)
                    .len()
            })
        });
    }
    group.finish();
}

fn populated_dit(n: usize) -> Dit {
    let mut dit = Dit::new();
    let base = Dn::parse("ou=people,dc=example").unwrap();
    dit.add(LdapEntry::new(Dn::parse("dc=example").unwrap()).with("dc", "example"))
        .unwrap();
    dit.add(LdapEntry::new(base.clone()).with("ou", "people"))
        .unwrap();
    for i in 0..n {
        let dn = Dn::parse(&format!("cn=u{i},ou=people,dc=example")).unwrap();
        dit.add(
            LdapEntry::new(dn)
                .with("cn", format!("u{i}"))
                .with("dept", format!("d{}", i % 32)),
        )
        .unwrap();
    }
    dit
}

fn bench_ldap_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("ldap_search");
    for n in SIZES {
        let dit = populated_dit(n);
        let filter = LdapFilter::parse(&format!("(cn=u{})", n / 2)).unwrap();
        let root = Dn::root();
        group.bench_function(&format!("indexed/{n}"), |b| {
            b.iter(|| {
                dit.search(&root, Scope::Subtree, std::hint::black_box(&filter), 0)
                    .unwrap()
                    .len()
            })
        });
        group.bench_function(&format!("scan/{n}"), |b| {
            b.iter(|| {
                dit.search_scan(&root, Scope::Subtree, std::hint::black_box(&filter), 0)
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_hdns_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdns_list");
    for n in SIZES {
        let realm = hdns::HdnsRealm::new("bench", 1, groupcast::StackConfig::default(), None, 5);
        realm.create_context(0, "bulk").unwrap();
        realm.create_context(0, "small").unwrap();
        for i in 0..n {
            realm
                .rebind(0, &format!("bulk/leaf-{i}"), hdns::HdnsEntry::leaf(vec![0]))
                .unwrap();
        }
        for j in 0..10 {
            realm
                .rebind(0, &format!("small/x-{j}"), hdns::HdnsEntry::leaf(vec![0]))
                .unwrap();
        }
        // Listing the 10-entry subdir: a prefix range scan, so cost tracks
        // the subdir, not the n-entry sibling.
        group.bench_function(&format!("small_dir/{n}"), |b| {
            b.iter(|| realm.list(0, std::hint::black_box("small")).len())
        });
    }
    group.finish();
}

/// A directory context whose `search` takes a fixed wall-clock time —
/// stands in for a remote naming system on a ~2ms network.
struct SlowDir {
    inner: MemContext,
    delay: Duration,
}

impl Context for SlowDir {
    fn lookup(&self, name: &CompositeName) -> rndi_core::error::Result<BoundValue> {
        self.inner.lookup(name)
    }
    fn bind(&self, name: &CompositeName, value: BoundValue) -> rndi_core::error::Result<()> {
        self.inner.bind(name, value)
    }
    fn rebind(&self, name: &CompositeName, value: BoundValue) -> rndi_core::error::Result<()> {
        self.inner.rebind(name, value)
    }
    fn unbind(&self, name: &CompositeName) -> rndi_core::error::Result<()> {
        self.inner.unbind(name)
    }
    fn list(
        &self,
        name: &CompositeName,
    ) -> rndi_core::error::Result<Vec<rndi_core::context::NameClassPair>> {
        self.inner.list(name)
    }
    fn list_bindings(
        &self,
        name: &CompositeName,
    ) -> rndi_core::error::Result<Vec<rndi_core::context::Binding>> {
        self.inner.list_bindings(name)
    }
}

impl DirContext for SlowDir {
    fn get_attributes(&self, name: &CompositeName) -> rndi_core::error::Result<Attributes> {
        self.inner.get_attributes(name)
    }
    fn bind_with_attrs(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
    ) -> rndi_core::error::Result<()> {
        self.inner.bind_with_attrs(name, value, attrs)
    }
    fn rebind_with_attrs(
        &self,
        name: &CompositeName,
        value: BoundValue,
        attrs: Attributes,
    ) -> rndi_core::error::Result<()> {
        self.inner.rebind_with_attrs(name, value, attrs)
    }
    fn search(
        &self,
        name: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
    ) -> rndi_core::error::Result<Vec<rndi_core::context::SearchItem>> {
        std::thread::sleep(self.delay);
        self.inner.search(name, filter, controls)
    }
}

fn federated_root(mounts: usize, delay: Duration) -> Arc<MemContext> {
    let root = MemContext::new();
    for m in 0..mounts {
        let far = MemContext::new();
        far.bind_with_attrs(
            &format!("hit-{m}").as_str().into(),
            BoundValue::Null,
            Attributes::new().with("k", "v"),
        )
        .unwrap();
        let slow = SlowDir { inner: far, delay };
        root.bind(
            &format!("mount-{m:02}").as_str().into(),
            BoundValue::Context(Arc::new(slow)),
        )
        .unwrap();
    }
    Arc::new(root)
}

fn bench_federated_fanout(c: &mut Criterion) {
    const MOUNTS: usize = 8;
    let delay = Duration::from_millis(2);
    let root = federated_root(MOUNTS, delay);
    let controls = SearchControls {
        scope: SearchScope::Subtree,
        ..Default::default()
    };
    let filter = Filter::parse("(k=v)").unwrap();

    let mut group = c.benchmark_group("federated_fanout");
    for fanout in ["1", "8"] {
        let fed = FederatedContext::new(
            root.clone(),
            Arc::new(ProviderRegistry::new()),
            Environment::new().with(keys::FEDERATION_FANOUT, fanout),
        );
        group.bench_function(&format!("workers/{fanout}"), |b| {
            b.iter(|| {
                let hits = DirContext::search(
                    fed.as_ref(),
                    &CompositeName::empty(),
                    std::hint::black_box(&filter),
                    &controls,
                )
                .unwrap();
                assert_eq!(hits.len(), MOUNTS);
            })
        });
    }
    group.finish();
}

/// Not a criterion benchmark: a closed-loop thread sweep over the
/// registrar's read path, printed as its own table. Readers share one
/// `RwLock`, so indexed lookups should scale near-linearly with threads.
fn thread_sweep(_c: &mut Criterion) {
    const OPS_PER_THREAD: usize = 50_000;
    let registrar = populated_registrar(10_000);
    println!("\n# registrar_lookup_threads (10k items, indexed, ops/s total)");
    println!("{:>8}  {:>14}", "threads", "ops_per_sec");
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let registrar = registrar.clone();
                s.spawn(move || {
                    let template = ServiceTemplate::any().with_entry(
                        EntryTemplate::new("Name").with("name", format!("svc-{}", 1234 + t)),
                    );
                    for _ in 0..OPS_PER_THREAD {
                        let n = registrar
                            .lookup_all(std::hint::black_box(&template), usize::MAX)
                            .len();
                        assert_eq!(n, 1);
                    }
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let rate = (threads * OPS_PER_THREAD) as f64 / elapsed;
        println!("{threads:>8}  {rate:>14.0}");
    }
    println!();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_registrar_lookup, bench_ldap_search, bench_hdns_list,
        bench_federated_fanout, thread_sweep
}
criterion_main!(benches);
