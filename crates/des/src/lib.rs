//! # `des` — a deterministic discrete-event simulation engine
//!
//! The substrate beneath the Cell Broadband Engine model in this workspace.
//! It provides:
//!
//! * [`time`] — integer-nanosecond simulated clock types;
//! * [`sim`] — the event loop: a future-event list with FIFO tie-breaking
//!   and cancellation;
//! * [`stats`] — the busy/utilization tracker.
//!
//! An event is a function pointer plus at most one payload word, never a
//! boxed closure: whatever else an event needs lives in the model, so
//! scheduling and firing allocate nothing.
//!
//! Determinism is a design requirement, not an accident: two events
//! scheduled for the same instant always fire in scheduling order, so every
//! simulation in this workspace is reproducible from its seed.
//!
//! ```
//! use des::prelude::*;
//!
//! let mut sim = Sim::new(0u64);
//! sim.schedule_at(SimTime::ZERO + SimDuration::from_micros(5), |s| {
//!     *s.model_mut() += 1;
//! });
//! sim.run();
//! assert_eq!(*sim.model(), 1);
//! assert_eq!(sim.now(), SimTime(5_000));
//! ```

#![warn(missing_docs)]

pub mod sim;
pub mod stats;
pub mod time;

/// Convenient glob import for model code.
pub mod prelude {
    pub use crate::sim::{EventId, Sim};
    pub use crate::stats::BusyTracker;
    pub use crate::time::{SimDuration, SimTime};
}
