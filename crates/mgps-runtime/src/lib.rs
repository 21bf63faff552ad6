//! # `mgps-runtime` — dynamic multigrain parallelization
//!
//! A reusable implementation of the runtime system from Blagojevic et al.,
//! *Dynamic Multigrain Parallelization on the Cell Broadband Engine*
//! (PPoPP 2007): event-driven task-level parallelism (EDTLP), loop-level
//! work-sharing across accelerator cores (LLP), and the adaptive MGPS
//! policy that mixes the two in response to observed workload
//! characteristics.
//!
//! The crate is split along the paper's own seam:
//!
//! * [`events`] — the one event vocabulary both engines record, declared
//!   once as a table (enum, JSON tags, same-instant ranks).
//! * [`policy`] — the *decision procedures*, pure and engine-agnostic:
//!   the EDTLP/Linux-like PPE run-queue disciplines, the off-load
//!   granularity test, the scheduler taxonomy, loop chunking with
//!   adaptive master bias, and the MGPS utilization-history controller.
//! * [`native`] — a real host-thread execution engine driven by those
//!   policies: a virtual-SPE pool with bounded local stores, work-sharing
//!   teams mastered by the off-loading thread and held across dependent
//!   loops, and PPE-context admission control.
//!
//! The companion `cellsim` crate drives the same [`policy`] types over a
//! discrete-event model of the Cell processor to regenerate the paper's
//! tables and figures.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use mgps_runtime::native::{MgpsRuntime, RuntimeConfig, LoopBody, LoopSite, SpeContext};
//! use mgps_runtime::policy::SchedulerKind;
//!
//! struct Sum(usize);
//! impl LoopBody for Sum {
//!     type Acc = u64;
//!     fn len(&self) -> usize { self.0 }
//!     fn identity(&self) -> u64 { 0 }
//!     fn run_chunk(&self, r: std::ops::Range<usize>, _ctx: &mut SpeContext) -> u64 {
//!         r.map(|i| i as u64).sum()
//!     }
//!     fn merge(&self, a: u64, b: u64) -> u64 { a + b }
//! }
//!
//! let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Mgps));
//! let mut proc0 = rt.enter_process();
//! let total = proc0.offload_loop(LoopSite(0), Arc::new(Sum(1000))).unwrap();
//! assert_eq!(total, 499_500);
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod faults;
pub mod metrics;
pub mod native;
pub mod policy;
pub mod tracing;

pub use faults::{FaultKind, FaultPlan, RecoveryPolicy};
pub use metrics::{
    AtomicMetrics, Counter, HistKind, MetricsSink, MetricsSinkExt, MetricsSnapshot, NopMetrics,
    Snapshot, SnapshotDelta, SnapshotSource,
};
// The second name for `EventKind` here is the frozen benchmark harness's
// (see `tracing`); nothing in-tree uses it.
pub use tracing::{TraceEvent, TraceEventKind, TraceHandle, TraceLog, Tracer, ThreadTrace};
