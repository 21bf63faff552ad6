//! MGPS window-decision records with the policy's `U` replayed.
//!
//! The simulator records a [`EventKind::DegreeDecision`] at every window
//! boundary, but the event carries only the policy's *output* (degree,
//! `T`, window fill). This fold reconstructs the *input* too: `U`, the
//! number of discrete off-loads that landed while the window-closing task
//! executed, replayed from the off-load history exactly as
//! `mgps_runtime::policy::MgpsScheduler::on_departure` computes it — a
//! bounded deque of the last `window` off-load times, counted over
//! `[offload_ns, end_ns]` of the departing task.
//!
//! [`EventKind::DegreeDecision`]: cellsim::event::EventKind::DegreeDecision

use std::collections::{HashMap, VecDeque};

use cellsim::event::{EventKind, RunLog};

/// One MGPS evaluation point, with both the policy's inputs and output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// When the decision was taken, ns.
    pub at_ns: u64,
    /// The window-closing task whose departure triggered the evaluation.
    pub task: u64,
    /// Replayed `U`: off-loads that landed during the departing task's
    /// execution window `[offload_ns, end_ns]`.
    pub u: usize,
    /// The paper's `T`: tasks waiting for off-load at the decision.
    pub waiting: usize,
    /// The degree granted (1 = LLP off).
    pub degree: usize,
    /// SPEs on the machine.
    pub n_spes: usize,
    /// Configured window length.
    pub window: usize,
    /// Off-loads held in the window sample at the decision.
    pub window_fill: usize,
}

impl DecisionRecord {
    /// Whether this decision switched (or kept) loop-level parallelism on.
    pub fn activated(&self) -> bool {
        self.degree > 1
    }
}

/// Fold `log` into one [`DecisionRecord`] per `DegreeDecision` event.
///
/// Replay follows the scheduler: the off-load deque is bounded by the run's
/// MGPS window (falling back to `n_spes`, the paper's configuration), and a
/// task's execution window opens at its *off-load request*, not its grant.
pub fn decisions(log: &RunLog) -> Vec<DecisionRecord> {
    let window = log.mgps_window.unwrap_or(log.n_spes).max(1);
    let mut out = Vec::new();
    let mut deque: VecDeque<(u64, u64)> = VecDeque::with_capacity(window);
    let mut offload_at: HashMap<u64, u64> = HashMap::new();
    // (task, replayed U) of the most recent departure, consumed by the
    // decision event that the machine emits at the same instant.
    let mut pending: Option<(u64, usize)> = None;

    for e in &log.events {
        match &e.kind {
            EventKind::Offload { task, .. } => {
                offload_at.insert(*task, e.at_ns);
                if deque.len() == window {
                    deque.pop_front();
                }
                deque.push_back((*task, e.at_ns));
            }
            EventKind::TaskEnd { task, .. } => {
                let started = offload_at.remove(task).unwrap_or(e.at_ns);
                let u = deque
                    .iter()
                    .filter(|&&(_, t)| t >= started && t <= e.at_ns)
                    .count();
                pending = Some((*task, u));
            }
            EventKind::DegreeDecision { degree, waiting, n_spes, window, window_fill, .. } => {
                let (task, u) = pending.take().unwrap_or((0, 0));
                out.push(DecisionRecord {
                    at_ns: e.at_ns,
                    task,
                    u,
                    waiting: *waiting,
                    degree: *degree,
                    n_spes: *n_spes,
                    window: *window,
                    window_fill: *window_fill,
                });
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::event::{EventRecord, SchedulerTag};

    fn log_with(window: usize, events: Vec<(u64, EventKind)>) -> RunLog {
        RunLog {
            scheduler: SchedulerTag::Mgps,
            n_spes: 8,
            quantum_ns: 0,
            seed: 1,
            local_store_bytes: 256 * 1024,
            loop_iters: 16,
            mgps_window: Some(window),
            fault_policy: None,
            tenant_weights: None,
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, (at_ns, kind))| EventRecord { seq: i as u64, at_ns, kind })
                .collect(),
        }
    }

    fn decision(degree: usize, waiting: usize, fill: usize) -> EventKind {
        EventKind::DegreeDecision { degree, u: 0, waiting, n_spes: 8, window: 2, window_fill: fill }
    }

    #[test]
    fn u_is_replayed_over_the_departing_tasks_window() {
        // Task 0 off-loaded at 10, task 1 at 50; task 1 ends at 200 with a
        // decision. Both off-loads fall inside task 1's window [50, 200]?
        // No — task 0's off-load (t=10) is before task 1's own off-load, so
        // U counts only task 1's entry.
        let log = log_with(
            2,
            vec![
                (10, EventKind::Offload { proc: 0, task: 0 }),
                (50, EventKind::Offload { proc: 1, task: 1 }),
                (200, EventKind::TaskEnd { proc: 1, task: 1, team: vec![0] }),
                (200, decision(8, 1, 2)),
            ],
        );
        let d = decisions(&log);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].task, 1);
        assert_eq!(d[0].u, 1, "only task 1's own off-load overlaps [50, 200]");
        assert_eq!(d[0].degree, 8);
        assert!(d[0].activated());
        assert_eq!(d[0].at_ns, 200);
    }

    #[test]
    fn concurrent_offloads_raise_u() {
        // Three off-loads land inside task 0's execution window.
        let log = log_with(
            4,
            vec![
                (10, EventKind::Offload { proc: 0, task: 0 }),
                (20, EventKind::Offload { proc: 1, task: 1 }),
                (30, EventKind::Offload { proc: 2, task: 2 }),
                (100, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
                (100, decision(1, 3, 3)),
            ],
        );
        let d = decisions(&log);
        assert_eq!(d[0].u, 3);
        assert!(!d[0].activated());
    }

    #[test]
    fn deque_is_bounded_by_the_window() {
        // Window 2: the first off-load is evicted before the decision, so
        // it cannot be counted even though its time overlaps.
        let mut events = vec![
            (10, EventKind::Offload { proc: 0, task: 0 }),
            (11, EventKind::Offload { proc: 1, task: 1 }),
            (12, EventKind::Offload { proc: 2, task: 2 }),
            (100, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
            (100, decision(4, 2, 2)),
        ];
        let log = log_with(2, std::mem::take(&mut events));
        let d = decisions(&log);
        assert_eq!(d[0].u, 2, "evicted off-load must not count toward U");
    }

    #[test]
    fn non_mgps_events_are_ignored() {
        let log = log_with(2, vec![(5, EventKind::Offload { proc: 0, task: 0 })]);
        assert!(decisions(&log).is_empty());
    }
}
