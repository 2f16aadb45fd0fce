//! The three deployments the workloads and probes run against, assembled
//! from the product crates' public constructors.
//!
//! Every world is populated in-process — through the same pipelines that
//! later serve the workload — before any server is bound, so set-up is
//! single-threaded work whose length does not depend on the socket path.
//! A *traced* world has the same parts with [`Traced`] wrappers slipped
//! around each pipeline and each provider.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rndi_core::context::DirContext;
use rndi_core::env::{keys, Environment};
use rndi_core::error::Result;
use rndi_core::initial::InitialContext;
use rndi_core::name::CompositeName;
use rndi_core::op::NamingOp;
use rndi_core::spi::{ProviderBackend, ProviderPipeline, ProviderRegistry, UrlContextFactory};
use rndi_core::url::RndiUrl;
use rndi_core::value::{BoundValue, Reference};
use rndi_net::{NetClient, NetServer};
use rndi_providers::common::{MsClock, RlusClock};
use rndi_providers::{
    DnsFactory, DnsProviderContext, HdnsFactory, HdnsProviderContext, JiniFactory,
    JiniProviderContext, LdapFactory, LdapProviderContext,
};

use crate::gen::{value_of, Space};
use crate::trace::{Traced, CLIENT};

/// Seed of the simulated group network under every realm. A constant: the
/// program under test never sees the workload seed.
const REALM_SEED: u64 = 1;

/// Every provider here is driven on a frozen millisecond clock, so DNS
/// TTLs and LDAP throttling windows never move under a run.
struct ZeroClock;

impl MsClock for ZeroClock {
    fn now_ms(&self) -> u64 {
        0
    }
}

pub fn zero_clock() -> Arc<dyn MsClock> {
    Arc::new(ZeroClock)
}

/// Wrap a standard pipeline's provider and the pipeline itself in spans:
/// `pipeline:<p>` (child of `parent`) around the interceptor stack and
/// `backend:<p>` around the provider and the service under it.
fn traced_stack<B: ProviderBackend + 'static>(
    pipeline: &Arc<ProviderPipeline<B>>,
    env: &Environment,
    names: (&'static str, &'static str),
    parent: &'static str,
    behind_socket: bool,
) -> Arc<Traced> {
    let backend: Arc<dyn ProviderBackend> = pipeline.backend().clone();
    let inner = ProviderPipeline::standard(Traced::new(backend, names.1, names.0), env);
    if behind_socket {
        Traced::behind_socket(inner, names.0, parent)
    } else {
        Traced::new(inner, names.0, parent)
    }
}

// ------------------------------------------------------------- wire --

pub const WIRE_SPACE: Space = Space {
    keys: 20_000,
    contexts: 200,
    jini_slots: 1,
};

pub fn wire_name(key: u32) -> CompositeName {
    let per_ctx = WIRE_SPACE.keys / WIRE_SPACE.contexts;
    CompositeName::from_components([
        format!("c{:03}", key / per_ctx),
        format!("n{:02}", key % per_ctx),
    ])
}

/// One single-replica HDNS realm behind the standard provider pipeline,
/// hosted by one `NetServer` with one event-loop shard.
pub struct WireWorld {
    pub realm: hdns::HdnsRealm,
    /// The server-side pipeline, callable in-process.
    pub pipeline: Arc<ProviderPipeline<HdnsProviderContext>>,
    pub server: NetServer,
    pub names: Vec<CompositeName>,
}

/// Server settings that do not depend on the host's core count.
pub fn wire_server_env() -> Environment {
    Environment::new().with(keys::NET_SERVER_SHARDS, "1")
}

/// v2, one pooled connection, one request in flight, no client cache:
/// every operation crosses the wire.
pub fn wire_client_env() -> Environment {
    Environment::new()
        .with(keys::NET_CLIENT_POOL_SIZE, "1")
        .with(keys::NET_CLIENT_PIPELINE_DEPTH, "1")
}

impl WireWorld {
    pub fn build(traced: bool) -> Result<WireWorld> {
        let env = wire_server_env();
        let realm = hdns::HdnsRealm::new(
            "wire",
            1,
            groupcast::StackConfig::default(),
            None,
            REALM_SEED,
        );
        let pipeline = HdnsProviderContext::with_env(realm.clone(), 0, "wire", &env);
        let names: Vec<CompositeName> = (0..WIRE_SPACE.keys).map(wire_name).collect();
        for ctx in 0..WIRE_SPACE.contexts {
            let name = CompositeName::from_components([format!("c{ctx:03}")]);
            pipeline.execute(&NamingOp::create_subcontext(name))?;
        }
        for (key, name) in names.iter().enumerate() {
            let value = BoundValue::Str(value_of(key as u32, 0));
            pipeline.execute(&NamingOp::bind(name.clone(), value))?;
        }
        let hosted: Arc<dyn ProviderBackend> = if traced {
            traced_stack(
                &pipeline,
                &env,
                ("pipeline:hdns", "backend:hdns"),
                CLIENT,
                true,
            )
        } else {
            pipeline.clone()
        };
        let server = NetServer::bind(hosted, &env)?;
        Ok(WireWorld {
            realm,
            pipeline,
            server,
            names,
        })
    }

    pub fn connect(&self) -> Result<Arc<ProviderPipeline<NetClient>>> {
        NetClient::connect(self.server.local_addr().to_string(), &wire_client_env())
    }
}

// -------------------------------------------------------------- fed --

pub const FED_SPACE: Space = Space {
    keys: 20_000,
    contexts: 2_000,
    jini_slots: 16,
};
const FED_ORGS: u32 = 20;
/// Services resident on the registrar, so strict binds do not run against
/// an empty lookup service.
const JINI_RESIDENTS: u32 = 64;

fn fed_dept(key: u32) -> u32 {
    key / (FED_SPACE.keys / FED_SPACE.contexts)
}

fn fed_leaf(key: u32) -> u32 {
    key % (FED_SPACE.keys / FED_SPACE.contexts)
}

fn fed_org_path(dept: u32) -> String {
    let per_org = FED_SPACE.contexts / FED_ORGS;
    format!("o{:02}/d{:02}", dept / per_org, dept % per_org)
}

/// The composite name a client resolves: DNS → HDNS → LDAP.
pub fn fed_url(key: u32) -> String {
    format!(
        "dns://global/{}/l{}",
        fed_org_path(fed_dept(key)),
        fed_leaf(key)
    )
}

/// The same leaf named directly at the LDAP server.
pub fn fed_ldap_url(key: u32) -> String {
    format!("ldap://dir/ou=d{:04}/l{}", fed_dept(key), fed_leaf(key))
}

pub fn fed_ldap_dn(key: u32) -> dirserv::Dn {
    dirserv::Dn::parse(&format!(
        "cn=l{},ou=d{:04},o=bench",
        fed_leaf(key),
        fed_dept(key)
    ))
    .expect("static dn shape")
}

pub fn jini_url(slot: u32) -> String {
    format!("jini://lus/j{slot:02}")
}

/// A scheme that always answers with one prebuilt context (how the traced
/// world mounts its wrapped pipelines).
struct FixedFactory {
    scheme: &'static str,
    ctx: Arc<dyn DirContext>,
}

impl UrlContextFactory for FixedFactory {
    fn scheme(&self) -> &str {
        self.scheme
    }

    fn create(&self, _url: &RndiUrl, _env: &Environment) -> Result<Arc<dyn DirContext>> {
        Ok(self.ctx.clone())
    }
}

/// DNS (one zone) anchoring an HDNS realm of department links that mount
/// an LDAP directory of leaves, plus a Jini registrar beside them — all
/// under one `InitialContext`.
pub struct FedWorld {
    pub ic: InitialContext,
    pub env: Environment,
    pub resolver: Arc<minidns::Resolver>,
    pub anchor: minidns::DnsName,
    pub realm: hdns::HdnsRealm,
    pub ldap: dirserv::DirectoryServer,
    pub registrar: rlus::Registrar,
    pub rlus_clock: Arc<rlus::ManualClock>,
}

impl FedWorld {
    pub fn build(env: Environment, traced: bool) -> Result<FedWorld> {
        let clock = zero_clock();

        let anchor = minidns::DnsName::parse("global.example").expect("static name");
        let dns_server = minidns::AuthServer::new();
        let mut zone = minidns::Zone::new(anchor.clone());
        zone.insert(minidns::ResourceRecord::txt(
            "global.example",
            3600,
            "hdns://hub",
        ));
        dns_server.add_zone(zone);
        let resolver = Arc::new(minidns::Resolver::new(vec![dns_server]));

        let realm = hdns::HdnsRealm::new(
            "fed",
            1,
            groupcast::StackConfig::default(),
            None,
            REALM_SEED,
        );

        let ldap = dirserv::DirectoryServer::new(dirserv::ServerConfig {
            read_throttle_per_sec: None,
            ..Default::default()
        });
        let base = dirserv::Dn::parse("o=bench").expect("static dn");
        ldap.connect_anonymous()
            .add(
                dirserv::LdapEntry::new(base.clone())
                    .with("objectClass", "organization")
                    .with("o", "bench"),
            )
            .map_err(|(code, detail)| {
                rndi_core::error::NamingError::service(format!("ldap seed {code:?}: {detail}"))
            })?;

        let rlus_clock = rlus::ManualClock::new();
        let registrar = rlus::Registrar::new(rlus_clock.clone(), u64::MAX / 4, REALM_SEED);

        let registry = Arc::new(ProviderRegistry::new());
        if traced {
            let mount = |scheme: &'static str, stack: Arc<Traced>| {
                registry.register(Arc::new(FixedFactory {
                    scheme,
                    ctx: ProviderPipeline::bare(stack),
                }));
            };
            mount(
                "dns",
                traced_stack(
                    &DnsProviderContext::with_env(
                        resolver.clone(),
                        anchor.clone(),
                        clock.clone(),
                        "global",
                        &env,
                    ),
                    &env,
                    ("pipeline:dns", "backend:dns"),
                    CLIENT,
                    false,
                ),
            );
            mount(
                "hdns",
                traced_stack(
                    &HdnsProviderContext::with_env(realm.clone(), 0, "hub", &env),
                    &env,
                    ("pipeline:hdns", "backend:hdns"),
                    CLIENT,
                    false,
                ),
            );
            mount(
                "ldap",
                traced_stack(
                    &LdapProviderContext::with_env(
                        ldap.connect_anonymous(),
                        base.clone(),
                        clock.clone(),
                        "dir",
                        &env,
                    ),
                    &env,
                    ("pipeline:ldap", "backend:ldap"),
                    CLIENT,
                    false,
                ),
            );
            mount(
                "jini",
                traced_stack(
                    &JiniProviderContext::new(
                        registrar.clone(),
                        Arc::new(RlusClock(rlus_clock.clone() as Arc<dyn rlus::Clock>)),
                        env.clone(),
                        "lus",
                    ),
                    &env,
                    ("pipeline:jini", "backend:jini"),
                    CLIENT,
                    false,
                ),
            );
        } else {
            let dns_factory = DnsFactory::new(clock.clone());
            dns_factory.register_anchor("global", resolver.clone(), anchor.clone());
            registry.register(dns_factory);
            let hdns_factory = HdnsFactory::new();
            hdns_factory.register_host("hub", realm.clone(), 0);
            registry.register(hdns_factory);
            let ldap_factory = LdapFactory::new(clock);
            ldap_factory.register_host("dir", ldap.clone(), base);
            registry.register(ldap_factory);
            let discovery = rlus::DiscoveryRealm::new();
            discovery.announce(
                rlus::discovery::LookupLocator::new("lus", 4160),
                &["bench"],
                registrar.clone(),
            );
            registry.register(JiniFactory::new(
                discovery,
                rlus_clock.clone() as Arc<dyn rlus::Clock>,
            ));
        }

        let ic = InitialContext::new(registry, env.clone())?;
        for org in 0..FED_ORGS {
            ic.create_subcontext(&format!("hdns://hub/o{org:02}"))?;
        }
        for dept in 0..FED_SPACE.contexts {
            ic.create_subcontext(&format!("ldap://dir/ou=d{dept:04}"))?;
            ic.bind(
                &format!("hdns://hub/{}", fed_org_path(dept)),
                BoundValue::Reference(Reference::url(format!("ldap://dir/ou=d{dept:04}"))),
            )?;
        }
        for key in 0..FED_SPACE.keys {
            ic.bind(&fed_ldap_url(key), value_of(key, 0))?;
        }
        for resident in 0..JINI_RESIDENTS {
            ic.bind(&format!("jini://lus/resident{resident:02}"), "resident")?;
        }
        Ok(FedWorld {
            ic,
            env,
            resolver,
            anchor,
            realm,
            ldap,
            registrar,
            rlus_clock,
        })
    }
}

// ---------------------------------------------------------- replica --

pub const REPLICA_SPACE: Space = Space {
    keys: 2_000,
    contexts: 50,
    jini_slots: 1,
};

pub fn replica_ctx_name(ctx: u32) -> CompositeName {
    CompositeName::from_components([format!("r{ctx:02}")])
}

pub fn replica_name(key: u32) -> CompositeName {
    let per_ctx = REPLICA_SPACE.keys / REPLICA_SPACE.contexts;
    CompositeName::from_components([
        format!("r{:02}", key / per_ctx),
        format!("k{:02}", key % per_ctx),
    ])
}

/// A three-replica realm that snapshots to disk, written through replica 0
/// and read back through replica 2.
pub struct ReplicaWorld {
    pub realm: hdns::HdnsRealm,
    pub writer: Arc<dyn ProviderBackend>,
    pub reader: Arc<dyn ProviderBackend>,
    pub names: Vec<CompositeName>,
    data_dir: PathBuf,
}

impl ReplicaWorld {
    pub fn build(scratch: &Path, traced: bool) -> Result<ReplicaWorld> {
        static NEXT_DIR: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let data_dir = scratch.join(format!(
            "replica-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let env = Environment::new();
        let realm = hdns::HdnsRealm::new(
            "replica",
            3,
            groupcast::StackConfig::default(),
            Some(data_dir.clone()),
            REALM_SEED,
        );
        let at = |node: usize| -> Arc<dyn ProviderBackend> {
            let pipeline = HdnsProviderContext::with_env(realm.clone(), node, "replica", &env);
            if traced {
                traced_stack(
                    &pipeline,
                    &env,
                    ("pipeline:hdns", "backend:hdns"),
                    CLIENT,
                    false,
                )
            } else {
                pipeline
            }
        };
        let (writer, reader) = (at(0), at(2));
        let names: Vec<CompositeName> = (0..REPLICA_SPACE.keys).map(replica_name).collect();
        for ctx in 0..REPLICA_SPACE.contexts {
            writer.execute(&NamingOp::create_subcontext(replica_ctx_name(ctx)))?;
        }
        for (key, name) in names.iter().enumerate() {
            let value = BoundValue::Str(value_of(key as u32, 0));
            writer.execute(&NamingOp::bind(name.clone(), value))?;
        }
        Ok(ReplicaWorld {
            realm,
            writer,
            reader,
            names,
            data_dir,
        })
    }

    /// Every replica holds the same store, byte for byte.
    pub fn converged(&self) -> bool {
        let first = self.realm.store_snapshot(0);
        (1..self.realm.replica_count()).all(|i| self.realm.store_snapshot(i) == first)
    }
}

impl Drop for ReplicaWorld {
    fn drop(&mut self) {
        // Best effort: a leftover snapshot directory is only litter.
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}
