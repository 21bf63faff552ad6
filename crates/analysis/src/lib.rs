//! Static schedule-invariant checking over simulator execution traces.
//!
//! The simulators in this workspace (`cellsim` for the Cell machine model,
//! `des` for the event core) can record a structured event log of a run.
//! This crate consumes those logs *after the fact* and verifies the
//! invariants the Cell hardware and the multigrain schedulers promise,
//! reporting each violation with the offending event index and a
//! human-readable explanation.

#![warn(missing_docs)]

pub mod checker;
pub mod digest;

pub use checker::{
    check_run, check_run_with, check_trace_sanity, CheckMode, CheckReport, Violation,
};
pub use digest::{digest_hex, trace_digest};
