//! Pure scheduling policies — the paper's contribution, engine-agnostic.
//!
//! Everything in this module is deterministic state-machine logic with no
//! clocks, threads, or I/O. The Cell simulator (`cellsim`) and the native
//! host-thread engine ([`crate::native`]) both drive these types, which is
//! what makes the simulated and native results comparable: they execute the
//! *same* decision procedures over different substrates.

pub mod balance;
pub mod chunk;
pub mod drr;
pub mod granularity;
pub mod hybrid;
pub mod mgps;
pub mod ppe;
pub mod types;

pub use balance::{LoadBalancer, LoopCost, LoopObservation};
pub use chunk::partition;
pub use drr::Drr;
pub use granularity::{FunctionTimings, GranularityController, GranularityDecision};
pub use hybrid::SchedulerKind;
pub use mgps::{Directive, MgpsConfig, MgpsScheduler};
pub use ppe::{PpePolicyKind, PpeScheduler};
pub use types::{KernelKind, LoopDegree, OffloadDecision, ProcId, SpeId, TaskId};
