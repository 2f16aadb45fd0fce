//! The figure runner: one name → experiment table behind
//! `cargo bench -p rndi-bench --bench figures [-- fig5 a3 …]`.
//!
//! Each entry measures one experiment ([`crate::figures`]), prints its
//! tables, and then prints the verdict of every claim
//! ([`crate::claims`]) about it. No name runs them all. `RNDI_BENCH_QUICK`
//! selects [`SweepConfig::quick`]; `--obs-dump` / `RNDI_OBS_DUMP` appends
//! the metrics exposition and slowest traces to Experiment 8.

use std::process::ExitCode;

use rndi_core::spi::telemetry;

use crate::claims::check;
use crate::experiment::{print_figure, print_goodput, print_latency, SweepConfig};
use crate::figures::{self, Measured};

/// One runnable experiment.
pub struct Figure {
    /// What the command line and claim ids call it.
    pub id: &'static str,
    pub title: &'static str,
    pub measure: fn(&SweepConfig) -> Measured,
    /// Prints what was measured, given the title.
    pub print: fn(&str, &Measured),
}

pub static FIGURES: &[Figure] = &[
    Figure {
        id: "fig2",
        title: "Figure 2 — Throughput of Jini and JNDI Jini provider, lookup operations (read) [ops/s]",
        measure: |c| figures::fig2(c).into(),
        print: print_sweep,
    },
    Figure {
        id: "fig3",
        title: "Figure 3 — Throughput of Jini and JNDI Jini provider, rebind operations (write) [ops/s]",
        measure: |c| figures::fig3(c).into(),
        print: print_sweep,
    },
    Figure {
        id: "fig4",
        title: "Figure 4 — Throughput of HDNS and JNDI HDNS provider, lookup operations (read) [ops/s]",
        measure: |c| figures::fig4(c).into(),
        print: print_sweep,
    },
    Figure {
        id: "fig5",
        title: "Figure 5 — Throughput of HDNS and JNDI HDNS provider, rebind operations (write) [ops/s]",
        measure: |c| figures::fig5(c, false).into(),
        print: |title, m| {
            print_sweep(title, m);
            m.series.iter().for_each(print_goodput);
        },
    },
    Figure {
        id: "fig6",
        title: "Figure 6 — Throughput of JNDI-DNS, lookup operations (read) [ops/s]",
        measure: |c| figures::fig6(c).into(),
        print: print_sweep,
    },
    Figure {
        id: "fig7",
        title: "Figure 7 — Throughput of JNDI-LDAP (OpenLDAP), read/write [ops/s]",
        measure: |c| figures::fig7(c).into(),
        print: print_sweep,
    },
    Figure {
        id: "fig8",
        title: "Experiment 8 — Federated (dns→hdns→ldap) vs direct LDAP lookups [ops/s]",
        measure: |c| figures::fig8(c).into(),
        print: print_federation,
    },
    Figure {
        id: "a2",
        title: "Ablation A2a — HDNS write throughput by protocol stack [ops/s]",
        measure: figures::a2,
        print: print_stack,
    },
    Figure {
        id: "a3",
        title: "Ablation A3 — HDNS rebind throughput: unbounded vs bounded queues [ops/s]",
        measure: |c| figures::a3(c).into(),
        print: print_sweep,
    },
    Figure {
        id: "a5",
        title: "Ablation A5 — strict bind: distributed lock vs co-located proxy [ops/s]",
        measure: |c| figures::a5(c).into(),
        print: print_sweep,
    },
    Figure {
        id: "x1",
        title: "Extension — HDNS layer scaling",
        measure: |_| figures::x1(),
        print: print_scaling,
    },
];

fn print_sweep(title: &str, m: &Measured) {
    print_figure(title, &m.series);
}

/// Experiment 8 also prints per-hop latency, then re-runs the federated
/// lookup with the pipeline cache on so the telemetry shows the hit rate
/// repeated resolutions achieve.
fn print_federation(title: &str, m: &Measured) {
    print_sweep(title, m);
    m.series.iter().for_each(print_latency);
    figures::fig8_cached_lookups(1_000);
    print_pipeline_telemetry();
    if crate::obsdump::requested() {
        crate::obsdump::dump(10);
    }
}

/// Per-provider pipeline telemetry: op counts by kind, mean latency, cache
/// hit rate, retries — the measured (not assumed) cost of the op pipeline.
fn print_pipeline_telemetry() {
    println!("\nProvider pipeline telemetry (per provider label):");
    for t in telemetry::snapshot() {
        println!("  {}", t.label);
        // Only kinds with traffic are listed, so `row.ops` is never zero.
        for row in &t.ops {
            println!(
                "    {:<18} ops={:<8} errors={:<6} mean={:.1}µs",
                row.kind.label(),
                row.ops,
                row.errors,
                row.total.as_micros() as f64 / row.ops as f64
            );
        }
        if let Some(cache) = &t.cache {
            println!(
                "    cache: hits={} misses={} invalidations={} hit-rate={:.1}%",
                cache.hits,
                cache.misses,
                cache.invalidations,
                100.0 * cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64
            );
        }
        if t.retries > 0 {
            println!("    retries: {}", t.retries);
        }
    }
}

fn print_stack(title: &str, m: &Measured) {
    print_sweep(title, m);
    println!();
    println!("# Ablation A2b — delivery reliability on a lossy LAN (real groupcast cluster)");
    println!(
        "{:>28}  {:>10}  {:>18}  {:>18}",
        "stack", "loss", "before gossip", "after gossip"
    );
    for d in &m.delivery {
        println!(
            "{:>28}  {:>10}  {:>17.1}%  {:>17.1}%",
            d.stack,
            format!("{:.0}%", d.loss * 100.0),
            d.before_gossip,
            d.after_gossip,
        );
    }
    println!("## sequencer: atomic+total order, delivery complete immediately");
    println!("## bimodal: initial delivery probabilistic, gossip repairs to completeness");
}

fn print_scaling(title: &str, m: &Measured) {
    let clients = figures::SCALE_CLIENTS;
    println!();
    println!("# {title} (fixed {clients} closed-loop clients)");
    println!(
        "{:>9}  {:>22}  {:>18}",
        "replicas", "aggregate reads [op/s]", "writes [op/s]"
    );
    for r in &m.scaling {
        println!("{:>9}  {:>22.0}  {:>18.0}", r.replicas, r.reads, r.writes);
    }
    println!("## reads scale out with replicas; writes pay the replication fan-out");
}

/// The figures `names` asks for, in table order; all of them for no name.
/// An unknown name is an error that lists the valid ones.
fn select(names: &[String]) -> Result<Vec<&'static Figure>, String> {
    if let Some(unknown) = names
        .iter()
        .find(|n| FIGURES.iter().all(|f| f.id != n.as_str()))
    {
        let valid: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        return Err(format!(
            "unknown figure {unknown:?}; valid names: {}",
            valid.join(" ")
        ));
    }
    Ok(FIGURES
        .iter()
        .filter(|f| names.is_empty() || names.iter().any(|n| n == f.id))
        .collect())
}

/// The bench target's `main`: run the figures named on the command line
/// (arguments starting with `--`, cargo's `--bench` among them, name no
/// figure) and fail if any claim does not hold.
pub fn main() -> ExitCode {
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let selected = match select(&names) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let config = if std::env::var("RNDI_BENCH_QUICK").is_ok() {
        SweepConfig::quick()
    } else {
        SweepConfig::default()
    };
    let mut failed = 0;
    for figure in selected {
        // Each figure's pipeline telemetry is its own, whichever ran before.
        rndi_obs::metrics::reset();
        let measured = (figure.measure)(&config);
        let verdicts = check(figure.id, &measured);
        (figure.print)(figure.title, &measured);
        println!();
        println!("claims — {}", figure.id);
        for v in &verdicts {
            println!("  {v}");
        }
        failed += verdicts.iter().filter(|v| !v.holds()).count();
    }
    if failed > 0 {
        eprintln!("{failed} claim(s) do not hold");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::{Verdict, CLAIMS};

    /// The whole claims table, twice: every claim holds, and — the sweeps
    /// being a function of the seed — measures the same value bit for bit,
    /// so EXPERIMENTS.md may quote the tables exactly.
    #[test]
    fn every_claim_holds_and_is_a_function_of_the_seed() {
        let config = SweepConfig::quick();
        let run = || -> Vec<Verdict> {
            FIGURES
                .iter()
                .flat_map(|f| check(f.id, &(f.measure)(&config)))
                .collect()
        };
        // Side by side: each evaluation is ≈ 9 s of debug-profile sweeps.
        let (first, second) = std::thread::scope(|s| {
            let second = s.spawn(run);
            (run(), second.join().expect("second evaluation"))
        });
        assert_eq!(first.len(), CLAIMS.len(), "every claim names a figure");
        let broken: Vec<String> = first
            .iter()
            .filter(|v| !v.holds())
            .map(|v| v.to_string())
            .collect();
        assert!(broken.is_empty(), "claims broken:\n{}", broken.join("\n"));
        let bits = |run: &[Verdict]| -> Vec<(&str, u64)> {
            run.iter()
                .map(|v| (v.claim.id, v.value.to_bits()))
                .collect()
        };
        assert_eq!(bits(&first), bits(&second));
    }

    #[test]
    fn every_figure_has_a_claim_and_claim_ids_are_unique() {
        for f in FIGURES {
            assert!(
                CLAIMS.iter().any(|c| c.figure() == f.id),
                "{} asserts nothing",
                f.id
            );
        }
        let mut ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CLAIMS.len());
    }

    #[test]
    fn unknown_figure_name_is_rejected_with_the_valid_ones() {
        let err = select(&["fig5".into(), "fig9".into()])
            .err()
            .expect("rejected");
        assert!(err.contains("\"fig9\""), "{err}");
        for f in FIGURES {
            assert!(err.contains(f.id), "{err} lists {}", f.id);
        }
        let all = select(&[]).expect("no name selects all");
        assert_eq!(all.len(), FIGURES.len());
        let two = select(&["a3".into(), "fig5".into()]).expect("known names");
        let ids: Vec<&str> = two.iter().map(|f| f.id).collect();
        assert_eq!(ids, ["fig5", "a3"], "table order");
    }
}
