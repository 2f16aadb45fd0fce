//! # rndi-bench — the evaluation harness
//!
//! Regenerates the paper's §7 experiments: closed-loop clients (each
//! issuing a request, waiting for the reply, then pausing 50 ms — ≤20 Hz
//! per client) sweep from 1 to 100 against each backend, measuring
//! successfully completed operations per second.
//!
//! The harness runs in **virtual time** on `simnet`: backend servers are
//! queueing stations whose service times come from [`cost`] (calibrated to
//! the paper's reported capacities), while the *logic* of each operation
//! executes against the real backend implementations (real registrar
//! lookups, real LDAP searches feeding the anti-DoS throttle, real DNS
//! resolution). Saturation, overload collapse and throttling therefore
//! *emerge* from the simulation rather than being painted on.
//!
//! One bench target, `figures`: Figs. 2–7, the §7 federation experiment,
//! ablations A2/A3/A5 and the §8 extension X1. [`runner`] is the name →
//! experiment table; every shape they assert is a row of
//! [`claims::CLAIMS`], checked by `cargo test` and printed ✔/✘ under its
//! figure.

#![deny(unsafe_code)]

pub mod claims;
pub mod cost;
pub mod experiment;
pub mod figures;
pub mod loadgen;
pub mod obsdump;
pub mod runner;

pub use experiment::{print_figure, print_goodput, print_latency, sweep, Series, SweepConfig};
pub use loadgen::{
    run_closed_loop, run_closed_loop_with_deadline, LoadResult, Operation, RoundTrips,
};
