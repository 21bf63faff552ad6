//! The native execution engine: the paper's runtime system realized on
//! host threads.
//!
//! * [`context`] — per-SPE state: the SPE's id, job count and tracing ring;
//! * [`pool`] — the virtual-SPE pool with immediate/FIFO off-load dispatch
//!   and panic containment;
//! * [`team`] — loop work-sharing: the off-loading thread as the team's
//!   master, claimable chunks, adaptive master bias, and a team held across
//!   dependent loops ([`team::LoopBody::again`], §5.3's chain);
//! * [`gate`] — PPE-context admission control (yield-on-offload vs
//!   hold-during-offload);
//! * [`adaptive`] — [`adaptive::MgpsRuntime`], tying pool, teams, gate, and
//!   the MGPS policy together behind one application-facing API;
//! * [`sync`] — the mutex/condvar layer all of the above lock through,
//!   switchable to `loom` for randomized schedule testing
//!   (`RUSTFLAGS="--cfg loom"`).

pub mod adaptive;
pub mod context;
pub mod gate;
pub mod pool;
pub mod sync;
pub mod team;

pub use adaptive::{MgpsRuntime, ProcessCtx, RuntimeConfig};
pub use context::SpeContext;
pub use gate::{GateMode, PpeGate, PpeToken};
pub use pool::{OffloadError, OffloadHandle, SpePool, SpeStats};
pub use team::{LoopBody, LoopSite, TeamRunner, TraceTask};
