//! The protocol-stack building blocks.
//!
//! Each module is a self-contained, synchronously testable state machine;
//! [`crate::cluster::Cluster`] composes them per member according to the
//! [`crate::config::StackConfig`] — the analogue of assembling a JGroups
//! stack from protocol layers.

pub mod bimodal;
pub mod flow;
pub mod gms;
pub mod primary;
pub mod sequencer;
