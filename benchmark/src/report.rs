//! Results: the JSON a run prints, the record files suite runs append to,
//! and the two tools that read them back — `--agree` (do two sets of runs
//! agree within the benchmark's bounds? also the ledger's `bench_diff`)
//! and `--ledger` (fold runs into a `BENCH_<pr>.json`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use serde_json::{Map, Value};

use crate::measure::{self, median, quantile};

/// The end-to-end metrics: name, unit, whether higher is better, and the
/// share of the parent's median by which it may worsen. `BENCHMARK.json`
/// carries the same table (a unit test holds them together).
pub const END_TO_END: [(&str, &str, bool, f64); 2] = [
    ("setup_s", "s", false, 0.15),
    ("peak_rss_mb", "MiB", false, 0.10),
];

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The first metric that is not a number: a figure over no samples (no
    /// slice closed, no operation of that kind ran). Such a run has no
    /// result to print.
    pub fn unmeasured(&self) -> Option<&str> {
        let hole = self.0.iter().find(|m| !m.1.is_finite())?;
        Some(hole.0.as_str())
    }

    /// Exactly the metrics of `listing`, in its order — or the name of the
    /// first one that was not measured.
    pub fn in_order_of(&self, listing: &[(&'static str, &'static str)]) -> Result<Metrics, String> {
        let mut ordered = Metrics::new();
        for (name, unit) in listing {
            let found = self.0.iter().find(|m| m.0 == *name && m.2 == *unit);
            let (_, value, _) = found.ok_or_else(|| format!("{name} [{unit}] was not measured"))?;
            ordered.put(name, *value, unit);
        }
        Ok(ordered)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    fn to_value(&self) -> Value {
        let mut map = Map::new();
        for (name, value, unit) in self.iter() {
            let mut m = Map::new();
            m.insert("value".into(), Value::from(value));
            m.insert("unit".into(), Value::from(unit));
            map.insert(name.into(), Value::Object(m));
        }
        Value::Object(map)
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    fn to_map(&self) -> Map {
        let mut map = Map::new();
        map.insert("correct".into(), Value::from(self.correct));
        map.insert("attempted".into(), Value::from(self.attempted));
        map.insert("failed".into(), Value::from(self.failed));
        map.insert("metrics".into(), self.metrics.to_value());
        map
    }

    /// The one-line result the driver reads.
    pub fn to_json(&self) -> String {
        Value::Object(self.to_map()).to_string()
    }
}

/// Append the outcome, tagged with what produced it, to a record file.
pub fn append_record(
    path: &Path,
    workload: &str,
    seed: u64,
    traced: bool,
    outcome: &Outcome,
) -> std::io::Result<()> {
    let mut map = outcome.to_map();
    map.insert("workload".into(), Value::from(workload));
    map.insert("seed".into(), Value::from(seed));
    map.insert("trace".into(), Value::from(traced));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", Value::Object(map))
}

/// One metric's values over the runs of a set, keyed by
/// (workload, traced, metric).
type Samples = BTreeMap<(String, bool, String), (Vec<f64>, String)>;

fn load(paths: &[String]) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = serde_json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            let field = |k: &str| {
                v.get(k)
                    .ok_or_else(|| format!("{path}: record lacks {k:?}"))
            };
            if field("correct")?.as_bool() != Some(true) || field("failed")?.as_u64() != Some(0) {
                return Err(format!("{path}: holds a failed or incorrect run"));
            }
            let workload = field("workload")?.as_str().unwrap_or_default().to_string();
            let traced = field("trace")?.as_bool().unwrap_or(false);
            let metrics = field("metrics")?
                .as_object()
                .ok_or_else(|| format!("{path}: metrics is not an object"))?;
            for (name, m) in metrics.iter() {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{path}: {name} has no numeric value"))?;
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
                samples
                    .entry((workload.clone(), traced, name.clone()))
                    .or_insert_with(|| (Vec::new(), unit.to_string()))
                    .0
                    .push(value);
            }
        }
    }
    Ok(samples)
}

fn range_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    (hi - lo) / m.abs()
}

/// (Q3 − Q1) ÷ median with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (its default, exclusive,
/// method) — the spread the driver judges a benchmark by.
fn quartile_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |p: f64| {
        let pos = (p * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
    };
    (at(0.75) - at(0.25)) / m.abs()
}

/// `--agree <set A...> -- <set B...>`: per workload × metric, the
/// min / median / max and (max − min) ÷ median over all runs, each set's
/// quartile spread (what the driver judges by), and how far set B's median
/// sits from set A's. An end-to-end metric breaches when the range or the
/// difference of the medians exceeds its bound. Returns the exit code:
/// non-zero on any breach.
pub fn agree(argv: &[String]) -> i32 {
    let Some(split) = argv.iter().position(|a| a == "--") else {
        eprintln!("--agree needs two sets of record files separated by --");
        return 2;
    };
    let (a, b) = match (load(&argv[..split]), load(&argv[split + 1..])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("rndi-perfbench --agree: {e}");
            return 2;
        }
    };
    println!(
        "| workload | metric | unit | runs | min | median | max | range | iqr A | iqr B | B vs A | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    let mut breaches = 0;
    for ((workload, traced, metric), (a_values, unit)) in &a {
        let Some((b_values, _)) = b.get(&(workload.clone(), *traced, metric.clone())) else {
            continue;
        };
        let all: Vec<f64> = a_values.iter().chain(b_values).copied().collect();
        let (med_a, med_b) = (median(a_values), median(b_values));
        let bound = END_TO_END
            .iter()
            .find(|e| !*traced && e.0 == metric)
            .map(|e| (e.2, e.3));
        // Positive = set B is worse than set A.
        let moved = match bound {
            _ if med_a == 0.0 => 0.0,
            Some((true, _)) => (med_a - med_b) / med_a,
            _ => (med_b - med_a) / med_a.abs(),
        };
        let range = range_share(&all);
        let verdict = match bound {
            None => "per-layer",
            Some((_, bound)) if moved.abs() > bound => "BREACH medians differ",
            Some((_, bound)) if range > bound => "BREACH range",
            Some(_) => "ok",
        };
        if verdict.starts_with("BREACH") {
            breaches += 1;
        }
        println!(
            "| {workload} | {metric} | {unit} | {} | {:.4} | {:.4} | {:.4} | {range:.3} | {:.3} | {:.3} | {moved:+.3} | {} | {verdict} |",
            all.len(),
            quantile(&all, 0.0),
            median(&all),
            quantile(&all, 1.0),
            quartile_share(a_values),
            quartile_share(b_values),
            bound.map_or("-".to_string(), |b| format!("{:.2}", b.1)),
        );
    }
    println!("\nbreaches: {breaches}");
    i32::from(breaches > 0)
}

/// `--ledger <out.json> --sha <git sha> <record files...>`: one row per
/// workload × metric, plus the `wire_lockstep` latency budget.
pub fn ledger(argv: &[String]) -> i32 {
    let (Some(out), Some("--sha"), Some(sha)) =
        (argv.first(), argv.get(1).map(String::as_str), argv.get(2))
    else {
        eprintln!("--ledger <out.json> --sha <git sha> <record files...>");
        return 2;
    };
    let samples = match load(&argv[3..]) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rndi-perfbench --ledger: {e}");
            return 2;
        }
    };
    let host = measure::host_fingerprint();
    let mut rows = Vec::new();
    for ((workload, traced, metric), (values, unit)) in &samples {
        if *traced && probed_on(metric).is_some_and(|home| home != workload) {
            continue;
        }
        let mut row = Map::new();
        row.insert("workload".into(), Value::from(workload.as_str()));
        row.insert("metric".into(), Value::from(metric.as_str()));
        row.insert("value".into(), Value::from(median(values)));
        row.insert("unit".into(), Value::from(unit.as_str()));
        row.insert("spread".into(), Value::from(range_share(values)));
        row.insert("samples".into(), Value::from(values.len() as u64));
        row.insert(
            "kind".into(),
            Value::from(if *traced { "per_layer" } else { "end_to_end" }),
        );
        row.insert("host".into(), Value::from(host.as_str()));
        row.insert("git_sha".into(), Value::from(sha.as_str()));
        rows.push(Value::Object(row));
    }
    let layer = |metric: &str| {
        samples
            .get(&("wire_lockstep".to_string(), true, metric.to_string()))
            .map(|(values, _)| median(values))
    };
    let mut doc = Map::new();
    doc.insert("rows".into(), Value::Array(rows));
    if let Some(budget) = lockstep_budget(layer) {
        doc.insert("wire_lockstep_lookup_budget_us".into(), budget);
    }
    match std::fs::write(out, format!("{}\n", Value::Object(doc))) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("rndi-perfbench --ledger: {out}: {e}");
            1
        }
    }
}

/// The workload a layer probe's ledger row is taken from: every traced run
/// measures every probe, but the figure belongs to the workload whose
/// end-to-end metrics it should move (the README's table). `None` for the
/// metrics a traced run takes from its own workload.
fn probed_on(metric: &str) -> Option<&'static str> {
    let under = |prefixes: &[&str]| prefixes.iter().any(|p| metric.starts_with(p));
    Some(match metric {
        "client.list_p50_us" => "replica_write",
        "client.jini_bind_p50_us" => "fed_resolve",
        _ if under(&["client.", "trace.", "host."]) => return None,
        _ if under(&["net.proto.", "net.conn.", "net.allocs"]) => "wire_pipelined",
        _ if under(&["net."]) => "wire_lockstep",
        _ if under(&["hdns.", "groupcomm."]) => "replica_write",
        _ => "fed_resolve",
    })
}

/// floor + codec + conn + in-proc + residual = p50, every term a per-layer
/// metric of the `wire_lockstep` traced runs.
fn lockstep_budget(layer: impl Fn(&str) -> Option<f64>) -> Option<Value> {
    let floor = layer("net.loopback_rtt_floor_us")?;
    let codec = (layer("net.proto.encode_ns")? + layer("net.proto.decode_ns")?) / 1e3;
    let conn = (layer("net.conn.server_receive_ns")? + layer("net.conn.client_roundtrip_ns")?
        - layer("net.proto.envelope_ns")?)
        / 1e3;
    let inproc = layer("net.inproc.lookup_us")?;
    let residual = layer("net.wire_residual_us")?;
    let mut budget = Map::new();
    for (stage, us) in [
        ("loopback_rtt_floor", floor),
        ("codec", codec),
        ("conn_framing", conn),
        ("in_process_pipeline", inproc),
        ("handoff_and_wake_residual", residual),
        ("lookup_p50", floor + codec + conn + inproc + residual),
    ] {
        budget.insert(stage.into(), Value::from(us));
    }
    Some(Value::Object(budget))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` sits outside this crate; when the crate is built
    /// inside the repo the two tables must say the same thing.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<Value> {
            doc.get(key)
                .and_then(Value::as_array)
                .cloned()
                .unwrap_or_default()
        };
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .filter_map(|w| w.get("name")?.as_str().map(String::from))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (name, unit, higher, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(if higher { "higher" } else { "lower" })
            );
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(bound));
        }
        let per_layer: Vec<(String, String)> = listed("per_layer")
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect();
        let coded: Vec<(String, String)> = crate::probe::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(per_layer, coded);
    }

    #[test]
    fn a_figure_over_no_samples_is_a_hole_not_a_zero() {
        let mut m = Metrics::new();
        m.put("setup_s", 2.0, "s");
        assert_eq!(m.unmeasured(), None);
        m.put("client.read_p50_us", median(&[]), "us");
        assert_eq!(m.unmeasured(), Some("client.read_p50_us"));
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_share(&[10.0, 20.0, 40.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn budget_terms_sum_to_the_p50() {
        let layer = |m: &str| {
            Some(match m {
                "net.loopback_rtt_floor_us" => 6.0,
                "net.proto.encode_ns" => 400.0,
                "net.proto.decode_ns" => 600.0,
                "net.conn.server_receive_ns" => 900.0,
                "net.conn.client_roundtrip_ns" => 700.0,
                "net.proto.envelope_ns" => 600.0,
                "net.inproc.lookup_us" => 2.0,
                "net.wire_residual_us" => 5.0,
                _ => return None,
            })
        };
        let budget = lockstep_budget(layer).unwrap();
        assert_eq!(
            budget.get("lookup_p50").and_then(Value::as_f64),
            Some(6.0 + 1.0 + 1.0 + 2.0 + 5.0)
        );
    }
}
