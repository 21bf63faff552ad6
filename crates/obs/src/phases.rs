//! Per-offload phase accounting in the granularity inequality's terms.
//!
//! The paper's off-load profitability test (§5.2) compares
//! `t_spe + t_code + 2·t_comm` against `t_ppe`. This fold recovers those
//! terms for every off-load of a recorded run:
//!
//! * `t_ppe` — PPE-side computation since the process's previous task
//!   ended (or since the run started);
//! * `t_wait` — queueing delay between the off-load request and the grant;
//! * `t_spe` — SPE execution, task start to task end;
//! * `t_code` — code-image reload stall paid at the grant (team members
//!   reload in parallel, so the task-level stall is the maximum);
//! * `t_comm` — DMA latency of the task's input/output transfer, summed
//!   over the whole team (the simulator's lead SPE issues the task
//!   buffers). The optimized kernels double-buffer, so this overlaps
//!   `t_spe` unless the bus fell back to a stalled transfer.
//!
//! `t_code` and `t_comm` are Cell hardware costs: a native run records no
//! code reload and no DMA, so both are zero there.

use std::collections::HashMap;

use cellsim::event::{EventKind, RunLog};

use crate::critpath::PhaseBlame;

/// The phase terms of one off-load — the one task record every fold that
/// prices an off-load reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffloadPhases {
    /// The task.
    pub task: u64,
    /// The owning worker process.
    pub proc: usize,
    /// Loop degree granted.
    pub degree: usize,
    /// When the off-load was requested, ns.
    pub offload_ns: u64,
    /// When the task started on its team, ns.
    pub start_ns: u64,
    /// When the task ended, ns.
    pub end_ns: u64,
    /// PPE computation preceding the off-load, ns.
    pub t_ppe_ns: u64,
    /// Off-load queue wait, ns.
    pub t_wait_ns: u64,
    /// SPE execution, ns.
    pub t_spe_ns: u64,
    /// Code reload stall, ns.
    pub t_code_ns: u64,
    /// DMA transfer latency, ns.
    pub t_comm_ns: u64,
}

/// Phase accounting for every completed off-load of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// One record per completed off-load, in completion order.
    pub offloads: Vec<OffloadPhases>,
}

impl PhaseBreakdown {
    /// Fold `log` into per-offload phase records. Off-loads that never
    /// completed (truncated log) are dropped.
    pub fn from_log(log: &RunLog) -> PhaseBreakdown {
        let mut done = Vec::new();
        let mut prev_end: HashMap<usize, u64> = HashMap::new();
        let mut open: HashMap<u64, OffloadPhases> = HashMap::new();
        let mut member_of: HashMap<usize, u64> = HashMap::new();
        // Reload stalls seen at the current instant, not yet claimed by a
        // task start: (spe, at_ns, stall_ns).
        let mut reloads: Vec<(usize, u64, u64)> = Vec::new();

        for e in &log.events {
            match &e.kind {
                EventKind::Offload { proc, task } => {
                    let since = prev_end.get(proc).copied().unwrap_or(0);
                    let mut ph = OffloadPhases {
                        task: *task,
                        proc: *proc,
                        offload_ns: e.at_ns,
                        t_ppe_ns: e.at_ns.saturating_sub(since),
                        ..OffloadPhases::default()
                    };
                    ph.start_ns = e.at_ns; // until granted
                    open.insert(*task, ph);
                }
                EventKind::CodeReload { spe, stall_ns } => {
                    reloads.push((*spe, e.at_ns, *stall_ns));
                }
                EventKind::TaskStart { task, degree, team, .. } => {
                    if let Some(ph) = open.get_mut(task) {
                        ph.degree = *degree;
                        ph.start_ns = e.at_ns;
                        ph.t_wait_ns = e.at_ns.saturating_sub(ph.offload_ns);
                        // Claim this grant's reload stalls; parallel
                        // reloads cost the task one stall, the maximum.
                        let mut claimed = 0u64;
                        reloads.retain(|&(spe, at, stall)| {
                            if at == e.at_ns && team.contains(&spe) {
                                claimed = claimed.max(stall);
                                false
                            } else {
                                at == e.at_ns // older instants can never match
                            }
                        });
                        ph.t_code_ns = claimed;
                        for &spe in team {
                            member_of.insert(spe, *task);
                        }
                    }
                }
                EventKind::DmaComplete { spe, latency_ns, .. } => {
                    if let Some(task) = member_of.get(spe) {
                        if let Some(ph) = open.get_mut(task) {
                            ph.t_comm_ns += latency_ns;
                        }
                    }
                }
                EventKind::TaskEnd { task, team, .. } => {
                    if let Some(mut ph) = open.remove(task) {
                        ph.end_ns = e.at_ns;
                        ph.t_spe_ns = e.at_ns.saturating_sub(ph.start_ns);
                        prev_end.insert(ph.proc, e.at_ns);
                        for spe in team {
                            if member_of.get(spe) == Some(task) {
                                member_of.remove(spe);
                            }
                        }
                        done.push(ph);
                    }
                }
                _ => {}
            }
        }
        PhaseBreakdown { offloads: done }
    }

    /// Sum every phase over the run.
    pub fn totals(&self) -> PhaseBlame {
        let mut t = PhaseBlame::default();
        for ph in &self.offloads {
            t.t_ppe_ns += ph.t_ppe_ns;
            t.t_wait_ns += ph.t_wait_ns;
            t.t_spe_ns += ph.t_spe_ns;
            t.t_code_ns += ph.t_code_ns;
            t.t_comm_ns += ph.t_comm_ns;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::event::{EventRecord, SchedulerTag};

    fn log_with(events: Vec<(u64, EventKind)>) -> RunLog {
        RunLog {
            scheduler: SchedulerTag::Edtlp,
            n_spes: 8,
            quantum_ns: 0,
            seed: 1,
            local_store_bytes: 256 * 1024,
            loop_iters: 16,
            mgps_window: None,
            fault_policy: None,
            tenant_weights: None,
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, (at_ns, kind))| EventRecord { seq: i as u64, at_ns, kind })
                .collect(),
        }
    }

    #[test]
    fn phases_recover_the_granularity_terms() {
        let log = log_with(vec![
            (100, EventKind::Offload { proc: 0, task: 0 }),
            (130, EventKind::CodeReload { spe: 2, stall_ns: 40 }),
            (130, EventKind::CodeReload { spe: 5, stall_ns: 40 }),
            (130, EventKind::TaskStart { proc: 0, task: 0, degree: 2, team: vec![2, 5] }),
            (130, EventKind::DmaComplete { spe: 2, bytes: 8192, latency_ns: 7 }),
            (430, EventKind::TaskEnd { proc: 0, task: 0, team: vec![2, 5] }),
            // Second offload from the same proc: t_ppe measured from the
            // previous task's end.
            (500, EventKind::Offload { proc: 0, task: 1 }),
            (505, EventKind::TaskStart { proc: 0, task: 1, degree: 1, team: vec![2] }),
            (505, EventKind::DmaComplete { spe: 2, bytes: 8192, latency_ns: 9 }),
            (705, EventKind::TaskEnd { proc: 0, task: 1, team: vec![2] }),
        ]);
        let pb = PhaseBreakdown::from_log(&log);
        assert_eq!(pb.offloads.len(), 2);
        let a = pb.offloads[0];
        assert_eq!(
            (a.t_ppe_ns, a.t_wait_ns, a.t_spe_ns, a.t_code_ns, a.t_comm_ns),
            (100, 30, 300, 40, 7),
            "first offload phases"
        );
        let b = pb.offloads[1];
        assert_eq!(
            (b.t_ppe_ns, b.t_wait_ns, b.t_spe_ns, b.t_code_ns, b.t_comm_ns),
            (70, 5, 200, 0, 9),
            "second offload phases"
        );
        let t = pb.totals();
        assert_eq!(t.t_spe_ns, 500);
        assert_eq!(t.t_code_ns, 40);
        assert_eq!(t.t_comm_ns, 16);
    }

    #[test]
    fn incomplete_offloads_are_dropped() {
        let log = log_with(vec![
            (0, EventKind::Offload { proc: 0, task: 0 }),
            (5, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
        ]);
        assert!(PhaseBreakdown::from_log(&log).offloads.is_empty());
    }
}
