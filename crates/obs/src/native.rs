//! Drain native span traces into a [`RunLog`].
//!
//! The native runtime records per-thread rings of
//! [`mgps_runtime::tracing::TraceEvent`]s: the simulator's own
//! [`EventKind`] vocabulary (there is only one — see
//! [`mgps_runtime::events`]) stamped by one shared monotonic clock.
//! [`runlog_from_trace`] merges those rings into a single [`RunLog`], after
//! which the entire observability stack works on native runs unchanged:
//! the `mgps-analysis` checker (in its native mode), [`crate::timeline`],
//! [`crate::phases`], [`mod@crate::decisions`], [`crate::chrome_trace`], and
//! the critical-path engine.
//!
//! ## Merge order
//!
//! Within one ring, timestamps are monotone by construction. Across rings
//! they are comparable (one clock) but ties are possible, and the checker's
//! lifecycle rules care about same-instant precedence (a task must start
//! before it ends, an off-load precedes its task). The merge therefore
//! sorts *stably* by `(at_ns, rank)`, where [`EventKind::rank`] is the
//! causal-precedence column of the event table.
//!
//! [`EventKind`]: cellsim::event::EventKind
//! [`EventKind::rank`]: cellsim::event::EventKind::rank

use cellsim::event::{EventRecord, RunLog, SchedulerTag};
use cellsim::params::LOCAL_STORE_BYTES;
use mgps_runtime::tracing::{TraceEvent, TraceLog};

/// Run-level metadata the rings do not carry (the trace records *what
/// happened*; which scheduler and machine shape produced it is the
/// caller's knowledge).
#[derive(Debug, Clone)]
pub struct NativeRunMeta {
    /// Scheduling scheme of the run (drives the checker's context-switch
    /// discipline).
    pub scheduler: SchedulerTag,
    /// Virtual SPEs in the pool.
    pub n_spes: usize,
    /// Workload seed, if any (0 for unseeded native runs).
    pub seed: u64,
    /// Canonical fault spec of the armed `FaultPlan`, if any — lands in
    /// the RunLog header so the checker can audit the recovery policy.
    pub fault_policy: Option<String>,
    /// Per-tenant DRR dispatch weights, when the serve plane ran with
    /// non-default fairness — lands in the RunLog header so the checker's
    /// `tenant-fairness` rule can replay dispatch against them.
    pub tenant_weights: Option<Vec<u64>>,
}

/// Merge a drained native trace into a [`RunLog`].
///
/// `quantum_ns` is 0 (no simulated quantum) and `loop_iters` is 0: native
/// tasks carry their own iteration counts on their chunk events, which is
/// what the checker's native mode verifies coverage against.
pub fn runlog_from_trace(trace: &TraceLog, meta: NativeRunMeta) -> RunLog {
    let mut merged: Vec<&TraceEvent> = trace.threads.iter().flat_map(|t| &t.events).collect();
    merged.sort_by_key(|e| (e.at_ns, e.kind.rank()));
    let events = merged
        .into_iter()
        .enumerate()
        .map(|(i, e)| EventRecord { seq: i as u64, at_ns: e.at_ns, kind: e.kind.clone() })
        .collect();
    RunLog {
        scheduler: meta.scheduler,
        n_spes: meta.n_spes,
        quantum_ns: 0,
        seed: meta.seed,
        local_store_bytes: LOCAL_STORE_BYTES,
        loop_iters: 0,
        mgps_window: match meta.scheduler {
            // MgpsConfig::for_spes(n) uses window = n.
            SchedulerTag::Mgps => Some(meta.n_spes),
            _ => None,
        },
        fault_policy: meta.fault_policy,
        tenant_weights: meta.tenant_weights,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::event::EventKind;
    use mgps_runtime::tracing::Tracer;

    #[test]
    fn merge_orders_ties_by_causal_rank() {
        let tracer = Tracer::new(16);
        let worker = tracer.handle();
        let admit = tracer.handle();
        // Recorded in deliberately scrambled ring order (equal timestamps
        // cannot be forced through the real clock, so every stamp is
        // flattened afterwards); the ranks alone must restore submission <
        // start < off-load < task start < task end < completion.
        worker.record(EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] });
        worker.record(EventKind::JobCompleted {
            job: 9,
            tenant: 0,
            t_queue_ns: 0,
            t_dispatch_ns: 0,
            t_kernel_ns: 0,
            t_reduce_ns: 0,
        });
        admit.record(EventKind::JobSubmitted {
            job: 9,
            tenant: 0,
            taxa: 4,
            sites: 8,
            bootstraps: 1,
            deadline_ns: 0,
            queue_depth: 1,
            queue_cap: 4,
        });
        worker.record(EventKind::JobStarted { job: 9, tenant: 0, attempt: 0 });
        worker.record(EventKind::Offload { proc: 0, task: 0 });
        worker.record(EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] });
        let mut log = tracer.drain();
        for t in &mut log.threads {
            for e in &mut t.events {
                e.at_ns = 50;
            }
        }
        let run = runlog_from_trace(
            &log,
            NativeRunMeta { scheduler: SchedulerTag::Edtlp, n_spes: 4, seed: 0, fault_policy: None, tenant_weights: None },
        );
        let kinds: Vec<&EventKind> = run.events.iter().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], EventKind::JobSubmitted { .. }));
        assert!(matches!(kinds[1], EventKind::JobStarted { .. }));
        assert!(matches!(kinds[2], EventKind::Offload { .. }));
        assert!(matches!(kinds[3], EventKind::TaskStart { .. }));
        assert!(matches!(kinds[4], EventKind::TaskEnd { .. }));
        assert!(matches!(kinds[5], EventKind::JobCompleted { .. }));
        assert_eq!(run.events.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn meta_fields_land_in_the_log() {
        let tracer = Tracer::new(4);
        let run = runlog_from_trace(
            &tracer.drain(),
            NativeRunMeta { scheduler: SchedulerTag::Mgps, n_spes: 8, seed: 7, fault_policy: None, tenant_weights: None },
        );
        assert_eq!(run.scheduler, SchedulerTag::Mgps);
        assert_eq!(run.n_spes, 8);
        assert_eq!(run.seed, 7);
        assert_eq!(run.quantum_ns, 0);
        assert_eq!(run.mgps_window, Some(8));
        assert_eq!(run.local_store_bytes, LOCAL_STORE_BYTES);
        assert!(run.events.is_empty());
    }
}
