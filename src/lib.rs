//! # `multigrain` — dynamic multigrain parallelization, reproduced
//!
//! A Rust reproduction of Blagojevic, Nikolopoulos, Stamatakis &
//! Antonopoulos, *Dynamic Multigrain Parallelization on the Cell Broadband
//! Engine* (PPoPP 2007), comprising:
//!
//! * [`mgps_runtime`] — the paper's contribution: the EDTLP event-driven
//!   task scheduler, loop-level work-sharing (LLP), and the adaptive MGPS
//!   policy, as pure decision procedures plus a real host-thread execution
//!   engine over virtual SPEs;
//! * [`cellsim`] — a deterministic discrete-event model of the Cell BE
//!   (PPE SMT contexts, 8 SPEs with local stores, MFC/DMA, EIB) calibrated
//!   to the paper's measurements, regenerating every table and figure;
//! * [`phylo`] — a real maximum-likelihood phylogenetics engine standing in
//!   for RAxML, with the same three off-loadable kernels
//!   (`newview`/`evaluate`/`makenewz`);
//! * [`machines`] — analytic Xeon/Power5 comparators for Figure 10;
//! * [`experiments`] — per-table/per-figure regeneration harnesses;
//! * [`mgps_obs`] — observability: per-SPE timelines, granularity-phase
//!   accounting, MGPS decision replay, and Chrome-trace export over the
//!   structured event log;
//! * [`adapters`] / [`parallel`] (this crate) — the glue that runs the real
//!   phylogenetic kernels through the multigrain runtime, work-shared and
//!   scheduled exactly as the paper describes.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use multigrain::prelude::*;
//!
//! // Real workload: a synthetic DNA alignment.
//! let aln = Alignment::synthetic(8, 120, &Jc69, 0.1, 7);
//! let data = Arc::new(PatternAlignment::compress(&aln));
//!
//! // A Cell-shaped adaptive runtime; one worker process.
//! let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Mgps));
//! let mut proc0 = rt.enter_process();
//! let mut engine = OffloadedEngine::new(&mut proc0, Jc69, Arc::clone(&data));
//!
//! // Every score and every branch-length optimization of this search is
//! // one off-load to virtual SPEs, with every kernel it needs inside,
//! // work-shared at whatever degree MGPS currently dictates.
//! let result = hill_climb_with(&mut engine, data.n_taxa(), &SearchConfig::default(), 1);
//! assert!(result.lnl.is_finite());
//! ```

#![warn(missing_docs)]

pub mod adapters;
pub mod bridge;
pub mod loadgen;
pub mod parallel;
pub mod serve;

pub use adapters::{OffloadedEngine, TraversalBody};
pub use bridge::workload_for;
pub use parallel::{AnalysisStats, ParallelAnalysis};

// Re-export the workspace crates under one roof.
pub use cellsim;
pub use des;
pub use experiments;
pub use machines;
pub use mgps_analysis;
pub use mgps_obs;
pub use mgps_runtime;
pub use phylo;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::adapters::{OffloadedEngine, TraversalBody};
    pub use crate::parallel::{AnalysisStats, ParallelAnalysis};
    pub use cellsim::machine::{run as run_simulation, RunReport, SimConfig};
    pub use cellsim::params::CellParams;
    pub use cellsim::workload::{KernelProfile, RaxmlWorkload};
    pub use machines::SmtMachine;
    pub use mgps_runtime::native::{
        GateMode, LoopBody, LoopSite, MgpsRuntime, OffloadError, ProcessCtx, RuntimeConfig,
        SpeContext, SpePool, TeamRunner,
    };
    pub use mgps_obs::{chrome_trace, ObsSummary, Timeline};
    pub use mgps_runtime::policy::{
        Directive, KernelKind, LoopDegree, MgpsConfig, MgpsScheduler, SchedulerKind,
    };
    pub use phylo::prelude::*;
}
