//! # `mgps-obs` — observability over multigrain runs
//!
//! The simulator (`cellsim`) records a structured [`RunLog`] of every
//! semantically meaningful action; the invariant checker (`mgps-analysis`)
//! proves such a log *legal*. This crate makes a log *legible*: it folds
//! the event stream into
//!
//! * per-SPE busy/idle/DMA **timelines** ([`timeline::Timeline`]),
//! * a per-offload **phase breakdown** matching the granularity
//!   inequality's terms — `t_ppe`, `t_wait`, `t_spe`, `t_code`, `t_comm`
//!   ([`phases::PhaseBreakdown`]),
//! * MGPS **window decision records** with the policy's `U` replayed from
//!   the off-load history ([`decisions::decisions`]),
//! * **counters and histograms** in the schema shared with the native
//!   runtime ([`mgps_runtime::metrics`]), so simulated and native runs are
//!   inspected with the same vocabulary ([`summary::ObsSummary`]),
//! * the **granularity atlas** ([`atlas::Atlas`]): seeded sweeps over
//!   (task size × arrival rate × loop width × scheduler) with makespan
//!   surfaces, crossover frontiers, and blame-annotated reports,
//!
//! and exports two sinks: a Chrome trace-event JSON document
//! ([`chrome::chrome_trace`], loadable in `chrome://tracing` / Perfetto)
//! and a text/JSON run summary for `experiments::report`.
//!
//! All folds are pure functions of the log, so a deterministic run yields
//! byte-identical exports.
//!
//! [`RunLog`]: cellsim::event::RunLog

#![warn(missing_docs)]

pub mod atlas;
pub mod chrome;
pub mod critpath;
pub mod decisions;
pub mod htmlkit;
pub mod jobs;
pub mod live;
pub mod native;
pub mod phases;
pub mod report;
pub mod summary;
#[cfg(test)]
mod testlogs;
pub mod timeline;

pub use atlas::{
    Atlas, CellMetrics, CellRecord, FrontierEdge, GridSpec, MgpsInputs, PointCoords,
    VerdictCounts, ATLAS_SCHEMA,
};
pub use chrome::chrome_trace;
pub use critpath::{what_if, CriticalPath, Phase, PhaseBlame, WhatIf, WhatIfOutcome};
pub use decisions::{decisions, DecisionRecord};
pub use htmlkit::Page;
pub use jobs::{quantile_from_log2_buckets, JOB_QUANTILES};
pub use live::{
    health_json, merge_health_events, parse_prometheus, prometheus_text,
    replay_health, validate_families, HealthDetector, HealthEvent,
    LiveDecision, LiveStatus, PromFamily, PromSample,
};
pub use mgps_runtime::events::AlarmKind;
pub use native::{runlog_from_trace, NativeRunMeta};
pub use phases::{OffloadPhases, PhaseBreakdown};
pub use report::{folded_stacks, html_report};
pub use summary::{ObsSummary, RunSource};
pub use timeline::{DmaSpan, TaskSpan, Timeline, VerdictMark};
