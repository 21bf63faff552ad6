//! # `cellsim` — a discrete-event model of the Cell Broadband Engine
//!
//! The hardware substrate for reproducing Blagojevic et al. (PPoPP 2007)
//! without Cell silicon. The model covers what the paper's scheduling
//! results depend on:
//!
//! * [`params`] — blade topology and the paper's measured constants
//!   (3.2 GHz, 2 SMT PPE contexts, 8 SPEs, 1.5 µs context switch, 10 ms
//!   Linux quantum, 256 KB local stores, 117 KB kernel module);
//! * [`dma`] / [`eib`] — MFC transfer legality (16 KB cap, 1/2/4/8/16n
//!   sizes, 128-bit alignment, 2,048-element lists) and aggregate-bandwidth
//!   bus contention;
//! * [`spe`] — per-SPE busy accounting and code-image residency;
//! * [`workload`] — the RAxML `42_SC` workload calibrated to §5.1–5.3
//!   (96 µs tasks, 11 µs PPE gaps, 228-iteration loops, naive/optimized/
//!   PPE-only kernel profiles);
//! * [`machine`] — the event-driven machine tying it together under the
//!   four scheduling policies from `mgps-runtime::policy`.
//!
//! Every run is bit-deterministic in its seed.
//!
//! ```
//! use cellsim::machine::{run, SimConfig};
//! use mgps_runtime::policy::SchedulerKind;
//!
//! let report = run(SimConfig::cell_42sc(SchedulerKind::Edtlp, 1, 20_000));
//! assert!(report.paper_scale_secs > 20.0 && report.paper_scale_secs < 40.0);
//! ```

#![warn(missing_docs)]

pub mod dma;
pub mod eib;
pub mod event;
pub mod machine;
pub mod mailbox;
pub mod params;
pub mod spe;
pub mod workload;

pub use event::{EventKind, EventRecord, MailboxKind, RunLog, SchedulerTag, SwitchReason};
pub use machine::{run, RunReport, SimConfig};
pub use params::CellParams;
pub use workload::{KernelProfile, RaxmlWorkload};
