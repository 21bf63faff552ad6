//! Per-virtual-SPE execution context: the argument every job and every
//! [`super::team::LoopBody::run_chunk`] is handed.
//!
//! A virtual SPE is a host thread, so it has none of a real SPE's
//! hardware costs: no local store to stage through and no code image to
//! reload. The simulator models those (`cellsim::params`); the context
//! here carries only what the host does — which SPE runs the job, how many
//! jobs it has run, and the SPE's tracing ring.

use crate::policy::SpeId;
use crate::tracing::TraceHandle;

/// Mutable state handed to every job executing on a virtual SPE.
#[derive(Debug)]
pub struct SpeContext {
    /// Which virtual SPE this is.
    pub id: SpeId,
    tasks_run: u64,
    trace: Option<TraceHandle>,
}

impl SpeContext {
    /// A context for `id`.
    pub fn new(id: SpeId) -> SpeContext {
        SpeContext { id, tasks_run: 0, trace: None }
    }

    /// Attach a tracing handle: events the running kernel records via
    /// [`Self::trace`] land on this SPE's ring.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// This SPE's tracing handle, if the pool was built with a tracer.
    pub fn trace(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    /// Total jobs executed.
    pub fn tasks_run(&self) -> u64 {
        self.tasks_run
    }

    /// Called by the pool around each job.
    pub(crate) fn begin_task(&mut self) {
        self.tasks_run += 1;
    }
}
