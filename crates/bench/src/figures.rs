//! Per-figure experiment setups.
//!
//! Each function reproduces one figure of the paper's §7: it deploys the
//! real backend, wraps it in a queueing model calibrated by [`crate::cost`],
//! and sweeps 1..100 closed-loop clients. Real backend operations execute
//! inside the simulation (sampled for the heavyweight replicated paths) so
//! the measured system is the actual implementation, not a stub.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use simnet::{micros, QueueingServer, ServerConfig, Sim, SimRng};

use rndi_core::prelude::*;

use crate::cost;
use crate::experiment::{sweep, Series, SweepConfig};
use crate::loadgen::{op_work, run_closed_loop, DoneFn, Operation, RoundTrips};

/// What one experiment measured: the data its tables print and its claims
/// ([`crate::claims`]) read.
#[derive(Debug, Default)]
pub struct Measured {
    /// Throughput-vs-clients lines, in column order; claims find theirs by
    /// label ([`Measured::line`]).
    pub series: Vec<Series>,
    /// A2b's table, one row per protocol stack.
    pub delivery: Vec<Delivery>,
    /// X1's table, one row per replica count.
    pub scaling: Vec<Scaling>,
}

/// One A2b row: what share of 200 multicasts both receivers hold.
#[derive(Debug)]
pub struct Delivery {
    pub stack: String,
    /// Link loss, a fraction.
    pub loss: f64,
    /// % delivered right after the sends.
    pub before_gossip: f64,
    /// % delivered after twelve gossip rounds.
    pub after_gossip: f64,
}

/// One X1 row: the HDNS layer at `replicas` nodes, op/s.
// Public as the element type of `Measured::scaling`.
#[derive(Debug)]
pub struct Scaling {
    pub replicas: usize,
    pub reads: f64,
    pub writes: f64,
}

impl Measured {
    /// The series labelled `label`.
    pub fn line(&self, label: &str) -> &Series {
        self.series
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| {
                let have: Vec<&str> = self.series.iter().map(|s| s.label.as_str()).collect();
                panic!("no series {label:?} among {have:?}")
            })
    }

    /// A2b's row for `stack`.
    pub fn delivered(&self, stack: &str) -> &Delivery {
        self.delivery
            .iter()
            .find(|d| d.stack == stack)
            .unwrap_or_else(|| panic!("no delivery row for {stack:?}"))
    }

    /// X1's row for `replicas` nodes.
    pub fn scaled(&self, replicas: usize) -> &Scaling {
        self.scaling
            .iter()
            .find(|r| r.replicas == replicas)
            .unwrap_or_else(|| panic!("no scaling row for {replicas} replicas"))
    }
}

impl From<Vec<Series>> for Measured {
    fn from(series: Vec<Series>) -> Self {
        Measured {
            series,
            ..Default::default()
        }
    }
}

fn scale(d: Duration, factor: f64) -> Duration {
    Duration::from_nanos((d.as_nanos() as f64 * factor) as u64)
}

/// An operation that chains several [`RoundTrips`] stages against distinct
/// servers — the shape of a federated lookup (root, intermediate, leaf).
struct SeqOp {
    stages: Vec<Rc<RoundTrips>>,
}

impl SeqOp {
    fn run(self: &Rc<Self>, sim: &Sim, idx: usize, done: DoneFn) {
        let this = self.clone();
        let stage = self.stages[idx].clone();
        Operation::issue(
            &stage,
            sim,
            Box::new(move |sim, ok| {
                if !ok || idx + 1 == this.stages.len() {
                    done(sim, ok);
                } else {
                    this.run(sim, idx + 1, done);
                }
            }),
        );
    }
}

impl Operation for Rc<SeqOp> {
    fn issue(&self, sim: &Sim, done: DoneFn) {
        self.run(sim, 0, done);
    }
}

// --------------------------------------------------------------- Jini --

fn jini_server(sim: &Sim) -> QueueingServer {
    QueueingServer::new(
        sim,
        ServerConfig {
            workers: 1,
            degradation: cost::JINI_DEGRADATION,
            ..Default::default()
        },
    )
}

/// A live registrar + provider context pair for the real-work closures.
fn jini_backend(
    strict: bool,
) -> (
    rlus::Registrar,
    Arc<ProviderPipeline<rndi_providers::JiniProviderContext>>,
) {
    let clock = rlus::ManualClock::new();
    let registrar = rlus::Registrar::new(clock.clone(), u64::MAX / 4, 77);
    let env = Environment::new().with(
        env_keys::JINI_STRICT_BIND,
        if strict { "true" } else { "false" },
    );
    let ctx = rndi_providers::JiniProviderContext::new(registrar.clone(), clock, env, "bench");
    (registrar, ctx)
}

/// Figure 2: Jini & JNDI-Jini provider, lookup (read) throughput.
pub fn fig2(config: &SweepConfig) -> Vec<Series> {
    let raw = sweep("jini", config, |sim, rng, _| {
        let (registrar, ctx) = jini_backend(false);
        ContextExt::rebind_str(&*ctx, "bench", "payload").expect("seed");
        let template = rlus::ServiceTemplate::any()
            .with_entry(rlus::EntryTemplate::new("RndiBinding").with("name", "bench"));
        let op = RoundTrips::new(
            jini_server(sim),
            rng.fork(),
            cost::net_rtt(),
            vec![cost::jini_read()],
        )
        .with_work(
            Rc::new(move |_| {
                registrar.lookup(&template).expect("seeded item present");
            }),
            1,
        );
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });

    let spi = |label: &str, strict: bool| {
        sweep(label, config, move |sim, rng, _| {
            let (_registrar, ctx) = jini_backend(strict);
            ContextExt::rebind_str(&*ctx, "bench", "payload").expect("seed");
            let op = RoundTrips::new(
                jini_server(sim),
                rng.fork(),
                cost::net_rtt(),
                vec![scale(cost::jini_read(), cost::JINI_SPI_READ_FACTOR)],
            )
            .with_work(op_work(ctx, NamingOp::lookup("bench".into())), 1);
            Rc::new(Rc::new(op)) as Rc<dyn Operation>
        })
    };

    vec![
        raw,
        spi("jini-spi-relaxed", false),
        spi("jini-spi-strict", true),
    ]
}

/// Figure 3: Jini & JNDI-Jini provider, rebind (write) throughput.
pub fn fig3(config: &SweepConfig) -> Vec<Series> {
    let raw = sweep("jini", config, |sim, rng, _| {
        let (registrar, _ctx) = jini_backend(false);
        let op = RoundTrips::new(
            jini_server(sim),
            rng.fork(),
            cost::net_rtt(),
            vec![cost::jini_write()],
        )
        .with_work(
            Rc::new(move |_| {
                let item = rlus::ServiceItem::new(rlus::ServiceStub::new(
                    vec!["Bench".into()],
                    vec![0; 64],
                ))
                .with_id(rlus::ServiceId::new(1, 1))
                .with_entry(rlus::Entry::name("bench"));
                registrar.register(item, 60_000);
            }),
            1,
        );
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });

    let relaxed = sweep("jini-spi-relaxed", config, |sim, rng, _| {
        let (_r, ctx) = jini_backend(false);
        let op = RoundTrips::new(
            jini_server(sim),
            rng.fork(),
            cost::net_rtt(),
            vec![scale(cost::jini_write(), cost::JINI_SPI_WRITE_FACTOR)],
        )
        .with_work(
            op_work(
                ctx,
                NamingOp::rebind("bench".into(), BoundValue::str("payload")),
            ),
            1,
        );
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });

    let strict = sweep("jini-spi-strict", config, |sim, rng, _| {
        let (_r, ctx) = jini_backend(true);
        // The distributed lock turns one rebind into 5 register writes + 5
        // register reads + the guarded lookup + the marshalled register —
        // every one of them a full LUS round trip.
        let mut segments = Vec::new();
        segments.extend(std::iter::repeat_n(
            cost::jini_read(),
            cost::EM_LOCK_READS as usize,
        ));
        segments.extend(std::iter::repeat_n(
            cost::jini_write(),
            cost::EM_LOCK_WRITES as usize,
        ));
        segments.push(cost::jini_read()); // existence check in the CS
        segments.push(scale(cost::jini_write(), cost::JINI_SPI_WRITE_FACTOR));
        let op = RoundTrips::new(jini_server(sim), rng.fork(), cost::net_rtt(), segments)
            .with_work(
                op_work(
                    ctx,
                    NamingOp::rebind("bench".into(), BoundValue::str("payload")),
                ),
                1,
            );
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });

    vec![raw, relaxed, strict]
}

/// Ablation A5 — the §5.1 proposal: "a proxy-based solution should be
/// adapted so that the necessary locking is performed locally (near the
/// Jini LUS) … exposing the atomic interface to the client." Compares
/// strict bind via the distributed lock against strict bind via the
/// co-located [`rndi_providers::AtomicBindProxy`] (and the relaxed
/// baseline).
pub fn a5(config: &SweepConfig) -> Vec<Series> {
    let fig3_series = fig3(config);
    let mut out: Vec<Series> = fig3_series
        .into_iter()
        .filter(|s| s.label.contains("spi"))
        .collect();

    let proxied = sweep("jini-spi-strict-proxy", config, |sim, rng, _| {
        let clock = rlus::ManualClock::new();
        let registrar = rlus::Registrar::new(clock.clone(), u64::MAX / 4, 78);
        let proxy = rndi_providers::AtomicBindProxy::new(registrar.clone());
        let env = Environment::new().with(env_keys::JINI_STRICT_BIND, "true");
        let ctx = rndi_providers::JiniProviderContext::with_proxy(
            registrar,
            clock,
            env,
            "proxy-bench",
            Some(proxy),
        );
        // One existence check + one marshalled register — both served at
        // the proxy, so two LUS-local operations and a single client RTT.
        let op = RoundTrips::new(
            jini_server(sim),
            rng.fork(),
            cost::net_rtt(),
            vec![
                cost::jini_read(),
                scale(cost::jini_write(), cost::JINI_SPI_WRITE_FACTOR),
            ],
        )
        .with_work(
            Rc::new(move |_| {
                // Fresh name per op: atomic binds of existing names fail by
                // design, and we measure the success path.
                static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                let i = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                ContextExt::bind_str(&*ctx, &format!("p{i}"), "v").expect("bind");
                ContextExt::unbind_str(&*ctx, &format!("p{i}")).expect("unbind");
            }),
            16,
        );
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });
    out.push(proxied);
    out
}

// --------------------------------------------------------------- HDNS --

fn hdns_realm() -> hdns::HdnsRealm {
    hdns::HdnsRealm::new(
        "bench",
        2, // "the HDNS service has been installed on two identical dedicated machines"
        groupcast::StackConfig::default(),
        None,
        7,
    )
}

/// Figure 4: HDNS & JNDI HDNS provider, lookup (read) throughput. All
/// requests go to one node, so this is per-node throughput.
pub fn fig4(config: &SweepConfig) -> Vec<Series> {
    let raw = sweep("hdns", config, |sim, rng, _| {
        let realm = hdns_realm();
        realm
            .rebind(0, "bench", hdns::HdnsEntry::leaf(vec![0; 64]))
            .expect("seed");
        let op = RoundTrips::new(
            QueueingServer::new(sim, ServerConfig::default()),
            rng.fork(),
            cost::net_rtt(),
            vec![cost::hdns_read()],
        )
        .with_work(
            Rc::new(move |_| {
                realm.lookup(0, "bench").expect("seeded entry");
            }),
            1,
        );
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });

    let spi = sweep("hdns-spi", config, |sim, rng, _| {
        let realm = hdns_realm();
        let ctx = rndi_providers::HdnsProviderContext::new(realm, 0, "bench");
        ContextExt::rebind_str(&*ctx, "bench", "payload").expect("seed");
        let op = RoundTrips::new(
            QueueingServer::new(sim, ServerConfig::default()),
            rng.fork(),
            cost::net_rtt(),
            vec![scale(cost::hdns_read(), cost::HDNS_SPI_FACTOR)],
        )
        .with_work(op_work(ctx, NamingOp::lookup("bench".into())), 1);
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });

    vec![raw, spi]
}

/// Figure 5: HDNS & JNDI HDNS provider, rebind (write) throughput.
/// `bounded = false` reproduces the paper (unbounded JGroups queues ⇒
/// memory exhaustion ⇒ crash past ~20 clients); `bounded = true` is the
/// proposed fix measured by the flow-control ablation.
pub fn fig5(config: &SweepConfig, bounded: bool) -> Vec<Series> {
    let server_config = move || {
        if bounded {
            ServerConfig {
                workers: 1,
                queue_limit: Some(cost::HDNS_BOUNDED_QUEUE),
                ..Default::default()
            }
        } else {
            ServerConfig {
                workers: 1,
                bytes_per_job: cost::HDNS_WRITE_BYTES,
                memory_limit: Some(cost::HDNS_MEMORY_LIMIT),
                restart_after: Some(cost::hdns_restart()),
                ..Default::default()
            }
        }
    };

    let raw = sweep("hdns", config, move |sim, rng, _| {
        let realm = hdns_realm();
        let op = RoundTrips::new(
            QueueingServer::new(sim, server_config()),
            rng.fork(),
            cost::net_rtt(),
            vec![cost::hdns_write()],
        )
        .with_work(
            Rc::new(move |_| {
                // Real replicated write, sampled: each one drives the full
                // groupcast pipeline across both replicas.
                realm
                    .rebind(0, "bench", hdns::HdnsEntry::leaf(vec![0; 64]))
                    .expect("rebind");
            }),
            64,
        );
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });

    let spi = sweep("hdns-spi", config, move |sim, rng, _| {
        let realm = hdns_realm();
        let ctx = rndi_providers::HdnsProviderContext::new(realm, 0, "bench");
        let op = RoundTrips::new(
            QueueingServer::new(sim, server_config()),
            rng.fork(),
            cost::net_rtt(),
            vec![scale(cost::hdns_write(), cost::HDNS_SPI_FACTOR)],
        )
        .with_work(
            op_work(
                ctx,
                NamingOp::rebind("bench".into(), BoundValue::str("payload")),
            ),
            64,
        );
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });

    vec![raw, spi]
}

/// Ablation A3 — bounded vs unbounded message queues. The paper closes
/// Fig. 5's analysis with "the implementation needs improvement to be able
/// to gracefully handle update overload": with the flow-control layer's
/// bounded queue the stack rejects excess work and throughput *levels off*
/// at capacity instead of growing its queues until the heap is gone.
pub fn a3(config: &SweepConfig) -> Vec<Series> {
    let raw_hdns = |bounded, label: &str| {
        let mut s = fig5(config, bounded).swap_remove(0);
        s.label = label.to_string();
        s
    };
    vec![
        raw_hdns(false, "unbounded (paper)"),
        raw_hdns(true, "bounded (proposed fix)"),
    ]
}

/// Ablation A2 — the §4.2 protocol-stack trade-off: "The Virtual Synchrony
/// protocol suite guarantees an atomic broadcast and delivery. However, it
/// comes at the cost of scalability … An alternative protocol suite uses
/// Bimodal Multicast, which improves scalability, for the price of
/// probabilistic message delivery reliability."
///
/// * A2a, `series`: write throughput in virtual time — a sequencer write
///   pays the extra forward-to-coordinator hop, a bimodal one multicasts
///   directly.
/// * A2b, `delivery`: delivery on a lossy LAN, from a real `groupcast`
///   cluster — the share of multicasts every member has right after the
///   send and after gossip anti-entropy.
pub fn a2(config: &SweepConfig) -> Measured {
    let stack = |label: &str, segments: Vec<Duration>| {
        sweep(label, config, move |sim, rng, _| {
            let op = RoundTrips::new(
                QueueingServer::new(sim, ServerConfig::default()),
                rng.fork(),
                cost::net_rtt(),
                segments.clone(),
            );
            Rc::new(Rc::new(op)) as Rc<dyn Operation>
        })
    };
    Measured {
        series: vec![
            stack("bimodal (HDNS default)", vec![cost::hdns_write()]),
            // The coordinator hop is an extra serialized segment.
            stack(
                "sequencer (virtual synchrony)",
                vec![micros(1800.0), cost::hdns_write()],
            ),
        ],
        delivery: vec![
            delivery(
                "sequencer (virtual sync.)",
                groupcast::OrderingMode::Sequencer,
            ),
            delivery(
                "bimodal fanout=2",
                groupcast::OrderingMode::Bimodal {
                    loss: 0.10,
                    fanout: 2,
                },
            ),
        ],
        scaling: Vec::new(),
    }
}

/// One A2b row: 200 multicasts from one of three members, counted at the
/// two receivers before and after twelve gossip rounds.
fn delivery(stack: &str, ordering: groupcast::OrderingMode) -> Delivery {
    use groupcast::{ChannelEvent, GroupChannel};
    let count_delivered = |chan: &GroupChannel| {
        chan.poll()
            .into_iter()
            .filter(|e| matches!(e, ChannelEvent::Message { .. }))
            .count()
    };
    let loss = match ordering {
        groupcast::OrderingMode::Sequencer => 0.0,
        groupcast::OrderingMode::Bimodal { loss, .. } => loss,
    };
    let cluster = groupcast::Cluster::new(99);
    let cfg = groupcast::StackConfig {
        ordering,
        ..Default::default()
    };
    let chans: Vec<GroupChannel> = (0..3)
        .map(|_| cluster.create_channel(cfg.clone()))
        .collect();
    for c in &chans {
        c.connect("abl").unwrap();
        cluster.pump_all();
    }
    for c in &chans {
        c.poll();
    }
    let n_msgs = 200;
    for i in 0..n_msgs {
        chans[0].mcast(vec![i as u8]).unwrap();
    }
    cluster.pump_all();
    let expected = (n_msgs * 2) as f64; // two receivers
    let before: usize = chans[1..].iter().map(count_delivered).sum();
    for _ in 0..12 {
        cluster.gossip_round();
        cluster.pump_all();
    }
    let after = before + chans[1..].iter().map(count_delivered).sum::<usize>();
    Delivery {
        stack: stack.to_string(),
        loss,
        before_gossip: 100.0 * before as f64 / expected,
        after_gossip: 100.0 * after as f64 / expected,
    }
}

/// Extension X1 — the paper's future work, §8: "Building a large scale
/// information service federation, and its thorough experimental
/// evaluation". Scales the HDNS layer from 1 to 8 replicas under a fixed
/// 600-client closed-loop load; one row per replica count:
///
/// * aggregate reads/s, spread round-robin across replicas (§6's "matching
///   requesters to local nodes") — scale out, every replica answers locally;
/// * writes/s through one node — fall, every write reaches the whole group.
pub fn x1() -> Measured {
    let scaling = [1usize, 2, 3, 4, 6, 8]
        .into_iter()
        .map(|replicas| Scaling {
            replicas,
            reads: scale_read_point(replicas, SCALE_CLIENTS),
            writes: scale_write_point(replicas, SCALE_CLIENTS),
        })
        .collect();
    Measured {
        scaling,
        ..Default::default()
    }
}

/// X1's fixed closed-loop client count (offers 12 000 op/s).
pub const SCALE_CLIENTS: usize = 600;

/// Spreads successive operations round-robin across per-replica ops.
struct RoundRobin {
    ops: Vec<Rc<RoundTrips>>,
    next: Cell<usize>,
}

impl Operation for RoundRobin {
    fn issue(&self, sim: &Sim, done: DoneFn) {
        let i = self.next.get();
        self.next.set((i + 1) % self.ops.len());
        Operation::issue(&self.ops[i].clone(), sim, done);
    }
}

fn scale_point(op: Rc<dyn Operation>, sim: &Sim, rng: &SimRng, clients: usize) -> f64 {
    run_closed_loop(
        sim,
        op,
        clients,
        cost::think_time(),
        Duration::from_secs(2),
        Duration::from_secs(15),
        rng,
    )
    .throughput
}

fn scale_read_point(replicas: usize, clients: usize) -> f64 {
    let sim = Sim::new();
    let rng = SimRng::seed_from_u64(4242 + replicas as u64);
    let realm = hdns::HdnsRealm::new(
        "scale",
        replicas,
        groupcast::StackConfig::default(),
        None,
        5,
    );
    realm
        .rebind(0, "bench", hdns::HdnsEntry::leaf(vec![0; 64]))
        .expect("seed");
    let ops: Vec<Rc<RoundTrips>> = (0..replicas)
        .map(|node| {
            let realm = realm.clone();
            Rc::new(
                RoundTrips::new(
                    QueueingServer::new(&sim, ServerConfig::default()),
                    rng.fork(),
                    cost::net_rtt(),
                    vec![cost::hdns_read()],
                )
                .with_work(
                    Rc::new(move |_| {
                        realm.lookup(node, "bench").expect("replicated entry");
                    }),
                    8,
                ),
            )
        })
        .collect();
    let op = Rc::new(RoundRobin {
        ops,
        next: Cell::new(0),
    });
    scale_point(op, &sim, &rng, clients)
}

fn scale_write_point(replicas: usize, clients: usize) -> f64 {
    let sim = Sim::new();
    let rng = SimRng::seed_from_u64(777 + replicas as u64);
    let realm = hdns::HdnsRealm::new(
        "scale-w",
        replicas,
        groupcast::StackConfig::default(),
        None,
        6,
    );
    // Write cost grows with group size: the multicast fans out to every
    // member and stability needs everyone's ack.
    let per_member = 0.35;
    let service = scale(cost::hdns_write(), 1.0 + per_member * (replicas - 1) as f64);
    let op = Rc::new(
        RoundTrips::new(
            QueueingServer::new(&sim, ServerConfig::default()),
            rng.fork(),
            cost::net_rtt(),
            vec![service],
        )
        .with_work(
            Rc::new(move |_| {
                realm
                    .rebind(0, "bench", hdns::HdnsEntry::leaf(vec![0; 64]))
                    .expect("replicated rebind");
            }),
            64,
        ),
    );
    scale_point(Rc::new(op), &sim, &rng, clients)
}

// ---------------------------------------------------------------- DNS --

fn dns_world() -> Arc<minidns::Resolver> {
    let server = minidns::AuthServer::new();
    let mut zone = minidns::Zone::new(minidns::DnsName::parse("bench.example").unwrap());
    for i in 0..32 {
        zone.insert(minidns::ResourceRecord::txt(
            &format!("e{i}.bench.example"),
            3600,
            format!("value-{i}"),
        ));
    }
    server.add_zone(zone);
    Arc::new(minidns::Resolver::new(vec![server]))
}

/// Figure 6: JNDI-DNS lookup (read) throughput.
pub fn fig6(config: &SweepConfig) -> Vec<Series> {
    let series = sweep("dns-spi", config, |sim, rng, _| {
        let resolver = dns_world();
        let name = minidns::DnsName::parse("e7.bench.example").unwrap();
        let sim2 = sim.clone();
        let op = RoundTrips::new(
            QueueingServer::new(sim, ServerConfig::default()),
            rng.fork(),
            cost::net_rtt(),
            vec![cost::dns_read()],
        )
        .with_work(
            Rc::new(move |_| {
                resolver
                    .resolve(
                        &name,
                        minidns::RecordType::Txt,
                        sim2.now().as_nanos() / 1_000_000,
                    )
                    .expect("record present");
            }),
            1,
        );
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });
    vec![series]
}

// --------------------------------------------------------------- LDAP --

fn ldap_server(throttle: Option<u64>) -> dirserv::DirectoryServer {
    let server = dirserv::DirectoryServer::new(dirserv::ServerConfig {
        read_throttle_per_sec: throttle,
        ..Default::default()
    });
    let conn = server.connect_anonymous();
    conn.add(
        dirserv::LdapEntry::new(dirserv::Dn::parse("o=bench").unwrap())
            .with("objectClass", "organization")
            .with("o", "bench"),
    )
    .expect("seed base");
    for i in 0..16 {
        conn.add(
            dirserv::LdapEntry::new(dirserv::Dn::parse(&format!("cn=e{i},o=bench")).unwrap())
                .with("objectClass", "device")
                .with("cn", format!("e{i}")),
        )
        .expect("seed entry");
    }
    server
}

/// Figure 7: JNDI-LDAP read and write throughput. The read plateau is the
/// real anti-DoS throttle's doing — the queueing server itself never
/// saturates.
pub fn fig7(config: &SweepConfig) -> Vec<Series> {
    let read = sweep("ldap-read", config, |sim, rng, _| {
        let server = ldap_server(Some(cost::LDAP_THROTTLE_PER_SEC));
        let conn = server.connect_anonymous();
        let dn = dirserv::Dn::parse("cn=e3,o=bench").unwrap();
        let op = RoundTrips::new(
            QueueingServer::new(sim, ServerConfig::default()),
            rng.fork(),
            cost::net_rtt(),
            vec![cost::ldap_read()],
        )
        .with_extra_delay(Rc::new(move |sim| {
            // The real server consults its throttle at virtual "now" and
            // reports the slowdown it imposed.
            let now_ms = sim.now().as_nanos() / 1_000_000;
            match conn.read(&dn, now_ms) {
                Ok((_, delay_ms)) => Duration::from_millis(delay_ms),
                Err(_) => Duration::ZERO,
            }
        }));
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });

    let write = sweep("ldap-write", config, |sim, rng, _| {
        let server = ldap_server(None);
        let conn = server.connect_anonymous();
        let dn = dirserv::Dn::parse("cn=e3,o=bench").unwrap();
        let op = RoundTrips::new(
            QueueingServer::new(sim, ServerConfig::default()),
            rng.fork(),
            cost::net_rtt(),
            vec![cost::ldap_write()],
        )
        .with_work(
            Rc::new(move |_| {
                conn.modify(
                    &dn,
                    &[dirserv::server::Modification::Replace(
                        "description".into(),
                        vec!["updated".into()],
                    )],
                )
                .expect("modify");
            }),
            1,
        );
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });

    vec![read, write]
}

// ---------------------------------------------------------- Federation --

/// The §7 claim: "the individual performance characteristics of the
/// discussed JNDI providers are preserved when they are combined into a
/// federated name space." Compares a direct LDAP read against the full
/// DNS → HDNS → LDAP composite-URL path, with the real federated
/// resolution executed (sampled) through an [`InitialContext`].
pub fn fig8(config: &SweepConfig) -> Vec<Series> {
    let direct = sweep("ldap-direct", config, |sim, rng, _| {
        let server = ldap_server(Some(cost::LDAP_THROTTLE_PER_SEC));
        let conn = server.connect_anonymous();
        let dn = dirserv::Dn::parse("cn=e3,o=bench").unwrap();
        let op = RoundTrips::new(
            QueueingServer::new(sim, ServerConfig::default()),
            rng.fork(),
            cost::net_rtt(),
            vec![cost::ldap_read()],
        )
        .with_extra_delay(Rc::new(move |sim| {
            let now_ms = sim.now().as_nanos() / 1_000_000;
            match conn.read(&dn, now_ms) {
                Ok((_, d)) => Duration::from_millis(d),
                Err(_) => Duration::ZERO,
            }
        }));
        Rc::new(Rc::new(op)) as Rc<dyn Operation>
    });

    let federated = sweep("federated dns-hdns-ldap", config, |sim, rng, _| {
        let deployment = federation_deployment();
        // Stage models: DNS root hop, HDNS intermediate hop, LDAP leaf hop.
        let dns_stage = Rc::new(RoundTrips::new(
            QueueingServer::new(sim, ServerConfig::default()),
            rng.fork(),
            cost::net_rtt(),
            vec![cost::dns_read()],
        ));
        let hdns_stage = Rc::new(RoundTrips::new(
            QueueingServer::new(sim, ServerConfig::default()),
            rng.fork(),
            cost::net_rtt(),
            vec![cost::hdns_read()],
        ));
        let ldap_conn = deployment.ldap.connect_anonymous();
        let ldap_dn = dirserv::Dn::parse("cn=mokey,ou=dcl,o=emory").unwrap();
        let ic = deployment.ic.clone();
        let ldap_stage = Rc::new(
            RoundTrips::new(
                QueueingServer::new(sim, ServerConfig::default()),
                rng.fork(),
                cost::net_rtt(),
                vec![cost::ldap_read()],
            )
            .with_extra_delay(Rc::new(move |sim| {
                let now_ms = sim.now().as_nanos() / 1_000_000;
                match ldap_conn.read(&ldap_dn, now_ms) {
                    Ok((_, d)) => Duration::from_millis(d),
                    Err(_) => Duration::ZERO,
                }
            }))
            .with_work(
                Rc::new(move |_| {
                    // The real federated resolution, end to end.
                    let v = ic
                        .lookup("dns://global/emory/mathcs/dcl/mokey")
                        .expect("federated lookup resolves");
                    assert_eq!(v.as_str(), Some("the-monkey"));
                }),
                32,
            ),
        );
        let op = Rc::new(SeqOp {
            stages: vec![dns_stage, hdns_stage, ldap_stage],
        });
        Rc::new(op) as Rc<dyn Operation>
    });

    vec![direct, federated]
}

struct FederationDeployment {
    ldap: dirserv::DirectoryServer,
    ic: Arc<InitialContext>,
}

/// Build the paper's §6 deployment: DNS anchors the federation, HDNS is
/// the replicated intermediate layer, a departmental LDAP server holds the
/// leaves.
fn federation_deployment() -> FederationDeployment {
    federation_deployment_with_env(Environment::new())
}

fn federation_deployment_with_env(env: Environment) -> FederationDeployment {
    let clock: Arc<dyn rndi_providers::common::MsClock> = rlus::ManualClock::new();

    // DNS: TXT at the anchor points at the HDNS layer.
    let dns_server = minidns::AuthServer::new();
    let mut zone = minidns::Zone::new(minidns::DnsName::parse("global.example").unwrap());
    zone.insert(minidns::ResourceRecord::txt(
        "global.example",
        3600,
        "hdns://host2",
    ));
    dns_server.add_zone(zone);
    let resolver = Arc::new(minidns::Resolver::new(vec![dns_server]));

    // HDNS: the replicated directory of department-level services.
    let realm = hdns::HdnsRealm::new("fed", 2, groupcast::StackConfig::default(), None, 21);
    realm.create_context(0, "emory").expect("ctx");
    realm.create_context(0, "emory/mathcs").expect("ctx");
    realm
        .bind(
            0,
            "emory/mathcs/dcl",
            hdns::HdnsEntry::leaf(
                rndi_core::value::StoredValue::Reference(Reference::url("ldap://dept-ldap/ou=dcl"))
                    .encode(),
            ),
        )
        .expect("bind ldap link");

    // LDAP: the departmental leaf server.
    let ldap = ldap_server_for_federation();

    let registry = Arc::new(ProviderRegistry::new());
    let dns_factory = rndi_providers::DnsFactory::new(clock.clone());
    dns_factory.register_anchor(
        "global",
        resolver,
        minidns::DnsName::parse("global.example").unwrap(),
    );
    registry.register(dns_factory);
    let hdns_factory = rndi_providers::HdnsFactory::new();
    hdns_factory.register_host("host2", realm, 0);
    registry.register(hdns_factory);
    let ldap_factory = rndi_providers::LdapFactory::new(clock);
    ldap_factory.register_host(
        "dept-ldap",
        ldap.clone(),
        dirserv::Dn::parse("o=emory").unwrap(),
    );
    registry.register(ldap_factory);

    let ic = Arc::new(InitialContext::new(registry, env.clone()).expect("ic"));
    FederationDeployment { ldap, ic }
}

/// Repeated federated lookups through a cache-enabled deployment. The
/// pipeline cache (TTL via `rndi.pipeline.cache.ttl.ms`) absorbs the
/// re-resolution of the dns→hdns→ldap chain after the first hop — the
/// resulting per-provider hit rates land in `rndi_cache_events_total`.
/// Kept out of the fig8 sweep itself so the throughput/latency curves
/// retain the paper's uncached semantics.
pub fn fig8_cached_lookups(repeats: usize) {
    let env = Environment::new().with(env_keys::CACHE_TTL_MS, "60000");
    let deployment = federation_deployment_with_env(env);
    for _ in 0..repeats {
        let v = deployment
            .ic
            .lookup("dns://global/emory/mathcs/dcl/mokey")
            .expect("federated lookup resolves");
        assert_eq!(v.as_str(), Some("the-monkey"));
    }
}

fn ldap_server_for_federation() -> dirserv::DirectoryServer {
    let ldap = dirserv::DirectoryServer::new(dirserv::ServerConfig {
        read_throttle_per_sec: Some(cost::LDAP_THROTTLE_PER_SEC),
        ..Default::default()
    });
    let conn = ldap.connect_anonymous();
    conn.add(
        dirserv::LdapEntry::new(dirserv::Dn::parse("o=emory").unwrap())
            .with("objectClass", "organization")
            .with("o", "emory"),
    )
    .expect("seed");
    conn.add(
        dirserv::LdapEntry::new(dirserv::Dn::parse("ou=dcl,o=emory").unwrap())
            .with("objectClass", "organizationalUnit")
            .with("ou", "dcl"),
    )
    .expect("seed");
    conn.add(
        dirserv::LdapEntry::new(dirserv::Dn::parse("cn=mokey,ou=dcl,o=emory").unwrap())
            .with("objectClass", "rndiObject")
            .with("cn", "mokey")
            .with(
                "rndiValue",
                String::from_utf8(rndi_core::value::StoredValue::Str("the-monkey".into()).encode())
                    .expect("utf8"),
            ),
    )
    .expect("seed");
    ldap
}
