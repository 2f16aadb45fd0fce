//! Sweep driver and figure printing.

use std::rc::Rc;
use std::time::Duration;

use simnet::{Sim, SimRng};

use crate::loadgen::{run_closed_loop_with_deadline, LoadResult, Operation};

/// Sweep configuration shared by all figures.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Client counts to sweep (the paper's x-axis, 1..100).
    pub clients: Vec<usize>,
    pub think: Duration,
    /// Goodput budget: completions slower than this count toward
    /// throughput but not goodput. `ZERO` disables the distinction.
    pub deadline: Duration,
    pub warmup: Duration,
    pub measure: Duration,
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            clients: vec![1, 2, 5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100],
            think: crate::cost::think_time(),
            deadline: crate::cost::deadline_budget(),
            warmup: Duration::from_secs(5),
            measure: Duration::from_secs(30),
            seed: 20060425, // IPPS 2006
        }
    }
}

impl SweepConfig {
    /// A faster configuration for CI / smoke runs.
    pub fn quick() -> Self {
        SweepConfig {
            clients: vec![1, 5, 10, 20, 40, 70, 100],
            warmup: Duration::from_secs(2),
            measure: Duration::from_secs(10),
            ..Default::default()
        }
    }
}

/// One measured series (one line of a figure).
#[derive(Clone, Debug)]
pub struct Series {
    pub label: String,
    pub points: Vec<LoadResult>,
}

impl Series {
    /// Peak throughput across the sweep.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.throughput).fold(0.0, f64::max)
    }

    /// Throughput at the largest client count.
    pub fn tail(&self) -> f64 {
        self.points.last().map(|p| p.throughput).unwrap_or(0.0)
    }

    /// The sweep point closest to `clients`.
    pub fn point(&self, clients: usize) -> Option<&LoadResult> {
        self.points
            .iter()
            .min_by_key(|p| p.clients.abs_diff(clients))
    }

    /// Throughput at the point closest to `clients`.
    pub fn at(&self, clients: usize) -> f64 {
        self.point(clients).map_or(0.0, |p| p.throughput)
    }
}

/// Run a sweep: `setup` builds (per point) the operation under test inside
/// a fresh simulation, so points are independent, like separate benchmark
/// runs on the paper's testbed.
pub fn sweep(
    label: &str,
    config: &SweepConfig,
    setup: impl Fn(&Sim, &SimRng, usize) -> Rc<dyn Operation>,
) -> Series {
    let mut points = Vec::with_capacity(config.clients.len());
    for &clients in &config.clients {
        let sim = Sim::new();
        let rng = SimRng::seed_from_u64(config.seed ^ (clients as u64) << 32);
        let op = setup(&sim, &rng, clients);
        let result = run_closed_loop_with_deadline(
            &sim,
            op,
            clients,
            config.think,
            config.deadline,
            config.warmup,
            config.measure,
            &rng,
        );
        points.push(result);
    }
    Series {
        label: label.to_string(),
        points,
    }
}

/// Print a figure as an aligned table: one row per client count, one
/// column per series (ops/s), matching the paper's plots.
pub fn print_figure(title: &str, series: &[Series]) {
    println!();
    println!("# {title}");
    print!("{:>8}", "clients");
    for s in series {
        print!("  {:>20}", s.label);
    }
    println!();
    let n = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..n {
        let clients = series
            .iter()
            .find_map(|s| s.points.get(i).map(|p| p.clients))
            .unwrap_or(0);
        print!("{clients:>8}");
        for s in series {
            match s.points.get(i) {
                Some(p) => print!("  {:>20.1}", p.throughput),
                None => print!("  {:>20}", "-"),
            }
        }
        println!();
    }
    // Summary lines the EXPERIMENTS.md table is built from.
    for s in series {
        println!(
            "## {}: peak {:.0} op/s, at-100-clients {:.0} op/s",
            s.label,
            s.peak(),
            s.tail()
        );
    }
}

/// Print latency columns for one series (used by the federation figure).
pub fn print_latency(series: &Series) {
    println!();
    println!("# latency — {}", series.label);
    println!(
        "{:>8}  {:>12}  {:>12}  {:>12}  {:>12}  {:>12}  {:>8}",
        "clients", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "goodput", "shed"
    );
    for p in &series.points {
        println!(
            "{:>8}  {:>12.2}  {:>12.2}  {:>12.2}  {:>12.2}  {:>12.1}  {:>8}",
            p.clients,
            p.mean_latency_ms,
            p.p50_latency_ms,
            p.p95_latency_ms,
            p.p99_latency_ms,
            p.goodput,
            p.failed
        );
    }
}

/// Print goodput columns for one series: throughput vs. in-budget
/// throughput and the ops the server refused or lost. The widening gap
/// between the first two columns past the knee is the overload story the
/// throughput table alone hides.
pub fn print_goodput(series: &Series) {
    println!();
    println!("# goodput — {}", series.label);
    println!(
        "{:>8}  {:>12}  {:>12}  {:>10}  {:>8}",
        "clients", "ops/s", "goodput/s", "in_budget%", "shed"
    );
    for p in &series.points {
        let pct = if p.completed > 0 {
            100.0 * p.in_budget as f64 / p.completed as f64
        } else {
            0.0
        };
        println!(
            "{:>8}  {:>12.1}  {:>12.1}  {:>9.1}%  {:>8}",
            p.clients, p.throughput, p.goodput, pct, p.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::RoundTrips;
    use simnet::{QueueingServer, ServerConfig};

    fn fixed_op(service_ms: u64) -> impl Fn(&Sim, &SimRng, usize) -> Rc<dyn Operation> {
        move |sim, rng, _clients| {
            let server = QueueingServer::new(sim, ServerConfig::default());
            let op = Rc::new(RoundTrips::new(
                server,
                rng.fork(),
                Duration::from_micros(200),
                vec![Duration::from_millis(service_ms)],
            ));
            Rc::new(op) as Rc<dyn Operation>
        }
    }

    #[test]
    fn sweep_produces_monotone_points_then_saturation() {
        let config = SweepConfig {
            clients: vec![1, 10, 50],
            warmup: Duration::from_secs(1),
            measure: Duration::from_secs(5),
            ..Default::default()
        };
        let s = sweep("t", &config, fixed_op(5));
        assert_eq!(s.points.len(), 3);
        assert!(s.points[0].throughput < s.points[1].throughput);
        // Capacity 200/s; 50 clients saturate.
        assert!((160.0..215.0).contains(&s.points[2].throughput));
        assert!((160.0..215.0).contains(&s.peak().min(215.0)));
        assert!(s.at(50) == s.tail());
    }

    #[test]
    fn sweep_is_deterministic() {
        let config = SweepConfig {
            clients: vec![10],
            warmup: Duration::from_secs(1),
            measure: Duration::from_secs(5),
            ..Default::default()
        };
        let a = sweep("a", &config, fixed_op(2));
        let b = sweep("b", &config, fixed_op(2));
        assert_eq!(a.points[0].throughput, b.points[0].throughput);
        assert_eq!(a.points[0].completed, b.points[0].completed);
    }

    #[test]
    fn print_does_not_panic() {
        let config = SweepConfig {
            clients: vec![1, 5],
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(2),
            ..Default::default()
        };
        let s = sweep("demo", &config, fixed_op(1));
        print_figure("Smoke figure", std::slice::from_ref(&s));
        print_latency(&s);
    }
}
