//! # simnet — virtual-time discrete-event simulated network and cluster
//!
//! This crate stands in for the paper's experimental substrate: a Gigabit
//! Ethernet LAN with dedicated server machines and a multi-threaded client
//! host. Instead of wall-clock threads, experiments run on a deterministic
//! discrete-event simulation:
//!
//! * [`time::SimTime`] — virtual timestamps with nanosecond resolution.
//! * [`sched::Sim`] — the event scheduler / simulation handle. Everything
//!   else is built from `Sim::schedule` callbacks.
//! * [`server::QueueingServer`] — a queueing service centre with a bounded
//!   worker pool; models a backend server's capacity, saturation and
//!   overload degradation.
//! * [`rng::SimRng`] — seeded, deterministic randomness.
//! * [`stats`] — throughput meters and latency accumulators used by the
//!   load generator.
//!
//! The simulation is single-threaded and fully deterministic given a seed:
//! running the same experiment twice yields identical event orders, which is
//! what lets the benchmark harness regenerate the paper's figures stably.

#![deny(unsafe_code)]

pub mod rng;
pub mod sched;
pub mod server;
pub mod stats;
pub mod time;

pub use rng::SimRng;
pub use sched::{EventId, Sim};
pub use server::{JobOutcome, QueueingServer, ServerConfig};
pub use stats::{LatencyStat, ThroughputMeter};
pub use time::SimTime;

/// Convenience: build a duration from milliseconds (f64, may be fractional).
pub fn millis(ms: f64) -> std::time::Duration {
    std::time::Duration::from_nanos((ms * 1_000_000.0) as u64)
}

/// Convenience: build a duration from microseconds (f64, may be fractional).
pub fn micros(us: f64) -> std::time::Duration {
    std::time::Duration::from_nanos((us * 1_000.0) as u64)
}
