//! The claims table: every shape the paper's evaluation (§7, Figs. 2–7),
//! its §7 federation remark and our ablations assert, written once.
//!
//! A [`Claim`] names a quantity of one experiment's [`Measured`] data and
//! the interval it must fall in. `cargo test -p rndi-bench` evaluates the
//! whole table, and the runner ([`crate::runner`]) prints each claim's
//! measured value and ✔/✘ under its figure; EXPERIMENTS.md cites the ids.
//! The intervals hold on both sweeps the runner offers
//! ([`SweepConfig::default`](crate::SweepConfig) and `quick()`), so what is
//! pinned is the shape — who wins, by what factor, where the knee, the
//! collapse and the plateau fall — not the third digit.

use crate::cost;
use crate::experiment::Series;
use crate::figures::{Measured, SCALE_CLIENTS};

/// One asserted shape. `id` is `<figure>.<name>`, the figure being the
/// runner entry whose data `measure` reads.
// Public as the element type of `CLAIMS`.
pub struct Claim {
    pub id: &'static str,
    /// What is compared, in the units of `lo`/`hi`.
    pub what: &'static str,
    pub measure: fn(&Measured) -> f64,
    /// The claim holds when `lo <= measure(..) <= hi`.
    pub lo: f64,
    pub hi: f64,
}

impl Claim {
    pub fn figure(&self) -> &'static str {
        self.id
            .split_once('.')
            .expect("claim ids are <figure>.<name>")
            .0
    }
}

/// A claim with the value one run measured for it.
pub struct Verdict {
    pub claim: &'static Claim,
    pub value: f64,
}

impl Verdict {
    pub fn holds(&self) -> bool {
        (self.claim.lo..=self.claim.hi).contains(&self.value)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Claim {
            id, what, lo, hi, ..
        } = self.claim;
        let mark = if self.holds() { '✔' } else { '✘' };
        let value = self.value;
        write!(f, "{mark} {id:<28} {value:>9.3} in [{lo}, {hi}]  {what}")
    }
}

/// Evaluate every claim about `figure` against what it measured.
pub fn check(figure: &str, measured: &Measured) -> Vec<Verdict> {
    CLAIMS
        .iter()
        .filter(|c| c.figure() == figure)
        .map(|claim| Verdict {
            claim,
            value: (claim.measure)(measured),
        })
        .collect()
}

fn mean_latency_ms(s: &Series, clients: usize) -> f64 {
    s.point(clients).map_or(0.0, |p| p.mean_latency_ms)
}

/// Throughput at `clients` over `clients` × the one-client throughput: 1
/// when the curve is the offered load all the way, i.e. no knee.
fn linearity(s: &Series, clients: usize) -> f64 {
    s.at(clients) / (clients as f64 * s.at(1))
}

/// Claims find their data by what it is: a series by its label
/// ([`Measured::line`]; `jini` and `hdns` are the raw services, `*-spi*` the
/// providers), an A2b row by stack, an X1 row by replica count.
pub static CLAIMS: &[Claim] = &[
    // ---------------------------------------------------------- Fig. 2 --
    Claim {
        id: "fig2.raw_peak",
        what: "raw LUS peak lookups, op/s (paper: ≈400)",
        measure: |m| m.line("jini").peak(),
        lo: 380.0,
        hi: 460.0,
    },
    Claim {
        id: "fig2.raw_declines",
        what: "raw LUS at 100 clients / its peak (\"starts decreasing afterwards\")",
        measure: |m| m.line("jini").tail() / m.line("jini").peak(),
        lo: 0.85,
        hi: 0.97,
    },
    Claim {
        id: "fig2.spi_tax",
        what: "1 − relaxed-SPI peak / raw peak (\"reduces the performance by about 25%\")",
        measure: |m| 1.0 - m.line("jini-spi-relaxed").peak() / m.line("jini").peak(),
        lo: 0.20,
        hi: 0.30,
    },
    Claim {
        id: "fig2.strict_equals_relaxed",
        what: "largest relative gap strict vs relaxed over the sweep (reads take no lock)",
        measure: |m| {
            let (relaxed, strict) = (m.line("jini-spi-relaxed"), m.line("jini-spi-strict"));
            relaxed
                .points
                .iter()
                .zip(&strict.points)
                .map(|(r, s)| (r.throughput - s.throughput).abs() / r.throughput)
                .fold(0.0, f64::max)
        },
        lo: 0.0,
        hi: 0.01,
    },
    // ---------------------------------------------------------- Fig. 3 --
    Claim {
        id: "fig3.raw_peak",
        what: "raw LUS peak rebinds, op/s (paper: ≈140)",
        measure: |m| m.line("jini").peak(),
        lo: 130.0,
        hi: 160.0,
    },
    Claim {
        id: "fig3.relaxed_peak",
        what: "relaxed-SPI peak rebinds, op/s (paper: ≈80)",
        measure: |m| m.line("jini-spi-relaxed").peak(),
        lo: 72.0,
        hi: 88.0,
    },
    Claim {
        id: "fig3.strict_peak",
        what: "strict-SPI peak rebinds, op/s (paper: ≈20)",
        measure: |m| m.line("jini-spi-strict").peak(),
        lo: 14.0,
        hi: 22.0,
    },
    // The paper's "7-fold decrease" is ≈140 → ≈20 op/s: raw over strict.
    // Ours is a little stronger because our Eisenberg–McGuire lock does
    // 5R+5W where the paper counted 3R+5W.
    Claim {
        id: "fig3.raw_over_strict",
        what: "raw peak / strict peak (the paper's \"7-fold decrease\")",
        measure: |m| m.line("jini").peak() / m.line("jini-spi-strict").peak(),
        lo: 7.0,
        hi: 10.0,
    },
    // The virtual-time counterpart of the ledger's real-time
    // `providers.jini.strict_over_relaxed`.
    Claim {
        id: "fig3.relaxed_over_strict",
        what: "relaxed peak / strict peak (what the lock alone costs the provider)",
        measure: |m| m.line("jini-spi-relaxed").peak() / m.line("jini-spi-strict").peak(),
        lo: 4.0,
        hi: 6.0,
    },
    Claim {
        id: "fig3.strict_latency",
        what: "strict / raw mean latency at 1 client (§5.1: ≥8× the basic primitive)",
        measure: |m| {
            mean_latency_ms(m.line("jini-spi-strict"), 1) / mean_latency_ms(m.line("jini"), 1)
        },
        lo: 8.0,
        hi: 12.0,
    },
    // ---------------------------------------------------------- Fig. 4 --
    Claim {
        id: "fig4.tail",
        what: "raw HDNS lookups at 100 clients, op/s (\"exceeds 1800\")",
        measure: |m| m.line("hdns").tail(),
        lo: 1800.0,
        hi: 2000.0,
    },
    Claim {
        id: "fig4.no_knee",
        what: "raw at 100 clients / 100 × raw at 1 client (no peak identified)",
        measure: |m| linearity(m.line("hdns"), 100),
        lo: 0.95,
        hi: 1.0,
    },
    Claim {
        id: "fig4.spi_cost",
        what: "1 − SPI / raw at 100 clients (\"no noticeable overhead\")",
        measure: |m| 1.0 - m.line("hdns-spi").tail() / m.line("hdns").tail(),
        lo: -0.01,
        hi: 0.02,
    },
    // ---------------------------------------------------------- Fig. 5 --
    Claim {
        id: "fig5.peak",
        what: "raw HDNS peak rebinds, op/s (paper: about 200)",
        measure: |m| m.line("hdns").peak(),
        lo: 190.0,
        hi: 215.0,
    },
    Claim {
        id: "fig5.spi_over_raw",
        what: "SPI peak / raw peak",
        measure: |m| m.line("hdns-spi").peak() / m.line("hdns").peak(),
        lo: 0.94,
        hi: 1.0,
    },
    Claim {
        id: "fig5.holds_to_20",
        what: "raw at 20 clients / raw peak (the decline starts past 20 clients)",
        measure: |m| m.line("hdns").at(20) / m.line("hdns").peak(),
        lo: 0.97,
        hi: 1.0,
    },
    Claim {
        id: "fig5.collapse",
        what: "raw at 100 clients / raw peak (\"rapid decline instead of levelling off\")",
        measure: |m| m.line("hdns").tail() / m.line("hdns").peak(),
        lo: 0.0,
        hi: 0.5,
    },
    // ---------------------------------------------------------- Fig. 6 --
    Claim {
        id: "fig6.tail",
        what: "JNDI-DNS lookups at 100 clients, op/s (\"exceeding 1800\")",
        measure: |m| m.line("dns-spi").tail(),
        lo: 1800.0,
        hi: 2000.0,
    },
    Claim {
        id: "fig6.no_knee",
        what: "at 100 clients / 100 × at 1 client (\"excellent scalability\")",
        measure: |m| linearity(m.line("dns-spi"), 100),
        lo: 0.95,
        hi: 1.0,
    },
    // ---------------------------------------------------------- Fig. 7 --
    Claim {
        id: "fig7.read_plateau",
        what: "LDAP reads at 100 clients, op/s (\"plateaus at about 800\")",
        measure: |m| m.line("ldap-read").tail(),
        lo: 780.0,
        hi: 820.0,
    },
    Claim {
        id: "fig7.linear_below_plateau",
        what: "reads at 20 clients / 20 × reads at 1 client (server unsaturated)",
        measure: |m| linearity(m.line("ldap-read"), 20),
        lo: 0.97,
        hi: 1.0,
    },
    Claim {
        id: "fig7.write_tail",
        what: "LDAP writes at 100 clients, op/s (\"very good write throughput\")",
        measure: |m| m.line("ldap-write").tail(),
        lo: 1400.0,
        hi: 1600.0,
    },
    Claim {
        id: "fig7.write_over_read",
        what: "writes / reads at 100 clients (only reads are throttled)",
        measure: |m| m.line("ldap-write").tail() / m.line("ldap-read").tail(),
        lo: 1.5,
        hi: 2.2,
    },
    // ---------------------------------------------------- Experiment 8 --
    Claim {
        id: "fig8.plateau_preserved",
        what: "federated / direct throughput at 100 clients (the leaf's throttle governs both)",
        measure: |m| m.line("federated dns-hdns-ldap").tail() / m.line("ldap-direct").tail(),
        lo: 0.9,
        hi: 1.0,
    },
    Claim {
        id: "fig8.latency_additive",
        what: "(federated − direct latency at 1 client) / (DNS + HDNS service + 2 RTT)",
        measure: |m| {
            let hops = cost::dns_read() + cost::hdns_read() + 2 * cost::net_rtt();
            (mean_latency_ms(m.line("federated dns-hdns-ldap"), 1)
                - mean_latency_ms(m.line("ldap-direct"), 1))
                / (hops.as_secs_f64() * 1e3)
        },
        lo: 0.9,
        hi: 1.1,
    },
    Claim {
        id: "fig8.latency_at_plateau",
        what: "federated / direct mean latency at 100 clients (same dynamics)",
        measure: |m| {
            mean_latency_ms(m.line("federated dns-hdns-ldap"), 100)
                / mean_latency_ms(m.line("ldap-direct"), 100)
        },
        lo: 1.0,
        hi: 1.15,
    },
    // -------------------------------------------------------------- A2 --
    Claim {
        id: "a2.sequencer_over_bimodal",
        what: "sequencer / bimodal writes at 100 clients (the coordinator hop serializes)",
        measure: |m| {
            m.line("sequencer (virtual synchrony)").tail() / m.line("bimodal (HDNS default)").tail()
        },
        lo: 0.65,
        hi: 0.8,
    },
    Claim {
        id: "a2.sequencer_first_pass",
        what: "sequencer: % delivered before any gossip (atomic delivery)",
        measure: |m| m.delivered("sequencer (virtual sync.)").before_gossip,
        lo: 100.0,
        hi: 100.0,
    },
    Claim {
        id: "a2.bimodal_first_pass",
        what: "bimodal, 10% loss: % delivered before gossip (FIFO gaps block delivery)",
        measure: |m| m.delivered("bimodal fanout=2").before_gossip,
        lo: 0.0,
        hi: 50.0,
    },
    Claim {
        id: "a2.gossip_repairs",
        what: "lower of the two stacks' % delivered after gossip anti-entropy",
        measure: |m| {
            m.delivery
                .iter()
                .map(|d| d.after_gossip)
                .fold(f64::INFINITY, f64::min)
        },
        lo: 100.0,
        hi: 100.0,
    },
    // -------------------------------------------------------------- A3 --
    Claim {
        id: "a3.bounded_levels_off",
        what: "bounded queue: writes at 100 clients / peak (graceful degradation)",
        measure: |m| {
            m.line("bounded (proposed fix)").tail() / m.line("bounded (proposed fix)").peak()
        },
        lo: 0.97,
        hi: 1.0,
    },
    Claim {
        id: "a3.unbounded_over_bounded",
        what: "unbounded / bounded writes at 100 clients",
        measure: |m| m.line("unbounded (paper)").tail() / m.line("bounded (proposed fix)").tail(),
        lo: 0.0,
        hi: 0.5,
    },
    // -------------------------------------------------------------- A5 --
    Claim {
        id: "a5.proxy_over_relaxed",
        what:
            "proxied strict / relaxed rebinds at 40 clients (atomicity kept, throughput recovered)",
        measure: |m| m.line("jini-spi-strict-proxy").at(40) / m.line("jini-spi-relaxed").at(40),
        lo: 0.75,
        hi: 0.92,
    },
    Claim {
        id: "a5.proxy_over_lock",
        what: "proxied strict / distributed-lock strict rebinds at 40 clients",
        measure: |m| m.line("jini-spi-strict-proxy").at(40) / m.line("jini-spi-strict").at(40),
        lo: 3.5,
        hi: 5.5,
    },
    // -------------------------------------------------------------- X1 --
    Claim {
        id: "x1.reads_scale_out",
        what: "aggregate reads on 4 replicas / on 1 (every replica answers locally)",
        measure: |m| m.scaled(4).reads / m.scaled(1).reads,
        lo: 3.9,
        hi: 4.1,
    },
    Claim {
        id: "x1.reads_capped_by_load",
        what: "aggregate reads on 8 replicas / offered load (600 clients × 20 Hz)",
        measure: |m| m.scaled(8).reads * cost::think_time().as_secs_f64() / SCALE_CLIENTS as f64,
        lo: 0.95,
        hi: 1.0,
    },
    Claim {
        id: "x1.writes_pay_fanout",
        what: "writes on 8 replicas / on 1 (every write reaches the whole group)",
        measure: |m| m.scaled(8).writes / m.scaled(1).writes,
        lo: 0.25,
        hi: 0.35,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// EXPERIMENTS.md's verdict rows cite claims by id: every id it cites
    /// exists, and every claim is cited.
    #[test]
    fn experiments_md_and_the_table_name_the_same_claims() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let cited: std::collections::BTreeSet<&str> = doc
            .split('`')
            .filter(|code| {
                code.split_once('.').is_some_and(|(fig, name)| {
                    crate::runner::FIGURES.iter().any(|f| f.id == fig)
                        && name
                            .bytes()
                            .all(|b| b.is_ascii_lowercase() || b == b'_' || b.is_ascii_digit())
                })
            })
            .collect();
        let table: std::collections::BTreeSet<&str> = CLAIMS.iter().map(|c| c.id).collect();
        assert_eq!(cited, table);
    }
}
