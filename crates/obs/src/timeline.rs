//! Per-SPE busy/idle/DMA timelines folded from a [`RunLog`].
//!
//! [`RunLog`]: cellsim::event::RunLog

use std::collections::{BTreeMap, HashMap};

use cellsim::event::{EventKind, KernelKind, RunLog};

/// One task occupancy interval on one SPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// The occupied SPE.
    pub spe: usize,
    /// The occupying task.
    pub task: u64,
    /// The task's owning worker process.
    pub proc: usize,
    /// Loop degree the task ran with (team size).
    pub degree: usize,
    /// Occupancy start, ns.
    pub start_ns: u64,
    /// Occupancy end, ns.
    pub end_ns: u64,
}

/// One DMA transfer interval attributed to an SPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaSpan {
    /// The SPE whose MFC moved the data.
    pub spe: usize,
    /// Bytes moved.
    pub bytes: usize,
    /// Transfer start, ns.
    pub start_ns: u64,
    /// Transfer end, ns.
    pub end_ns: u64,
}

/// One fault-plane bench interval on one SPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineSpan {
    /// The benched SPE.
    pub spe: usize,
    /// Quarantine start, ns.
    pub start_ns: u64,
    /// Re-admission time, ns (the end of the log for an SPE still benched
    /// when the run finished).
    pub end_ns: u64,
}

/// One granularity-controller verdict, as a point mark on the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictMark {
    /// When the controller ruled, ns.
    pub at_ns: u64,
    /// The kernel the verdict is about.
    pub kernel: KernelKind,
    /// Whether the invocation was granted an SPE off-load.
    pub offload: bool,
    /// Whether the off-load was a re-probe of a throttled kernel.
    pub reprobe: bool,
}

/// The complete per-SPE occupancy picture of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// SPEs on the machine.
    pub n_spes: usize,
    /// Time of the last event, ns (the fold's notion of run length).
    pub makespan_ns: u64,
    /// Task occupancy intervals, in task-end order.
    pub tasks: Vec<TaskSpan>,
    /// DMA transfer intervals, in issue order.
    pub dmas: Vec<DmaSpan>,
    /// Fault-plane quarantine intervals, in quarantine order.
    pub quarantines: Vec<QuarantineSpan>,
    /// Granularity-controller verdicts, in event order.
    pub verdicts: Vec<VerdictMark>,
}

impl Timeline {
    /// Fold `log` into per-SPE spans. Unterminated tasks (a truncated log)
    /// are dropped rather than guessed at.
    pub fn from_log(log: &RunLog) -> Timeline {
        let mut tl = Timeline { n_spes: log.n_spes, ..Timeline::default() };
        // task -> (proc, degree, team, start_ns)
        let mut open: HashMap<u64, (usize, usize, Vec<usize>, u64)> = HashMap::new();
        // spe -> quarantine start_ns
        let mut benched: BTreeMap<usize, u64> = BTreeMap::new();
        for e in &log.events {
            tl.makespan_ns = tl.makespan_ns.max(e.at_ns);
            match &e.kind {
                EventKind::TaskStart { proc, task, degree, team } => {
                    open.insert(*task, (*proc, *degree, team.clone(), e.at_ns));
                }
                EventKind::TaskEnd { task, .. } => {
                    if let Some((proc, degree, team, start_ns)) = open.remove(task) {
                        for spe in team {
                            tl.tasks.push(TaskSpan {
                                spe,
                                task: *task,
                                proc,
                                degree,
                                start_ns,
                                end_ns: e.at_ns,
                            });
                        }
                    }
                }
                EventKind::DmaComplete { spe, bytes, latency_ns } => {
                    tl.dmas.push(DmaSpan {
                        spe: *spe,
                        bytes: *bytes,
                        start_ns: e.at_ns,
                        end_ns: e.at_ns + latency_ns,
                    });
                    tl.makespan_ns = tl.makespan_ns.max(e.at_ns + latency_ns);
                }
                EventKind::SpeQuarantined { spe, .. } => {
                    benched.entry(*spe).or_insert(e.at_ns);
                }
                EventKind::SpeReadmitted { spe } => {
                    if let Some(start_ns) = benched.remove(spe) {
                        tl.quarantines.push(QuarantineSpan { spe: *spe, start_ns, end_ns: e.at_ns });
                    }
                }
                EventKind::GranularityVerdict { kernel, offload, reprobe, .. } => {
                    tl.verdicts.push(VerdictMark {
                        at_ns: e.at_ns,
                        kernel: *kernel,
                        offload: *offload,
                        reprobe: *reprobe,
                    });
                }
                _ => {}
            }
        }
        // An SPE still benched when the run ends was out of service to the
        // very end — unlike unterminated tasks, that interval is real.
        for (spe, start_ns) in benched {
            tl.quarantines.push(QuarantineSpan { spe, start_ns, end_ns: tl.makespan_ns });
        }
        tl
    }

    /// Nanoseconds each SPE spent running tasks (indexed by SPE).
    pub fn busy_ns(&self) -> Vec<u64> {
        let mut busy = vec![0u64; self.n_spes];
        for s in &self.tasks {
            if s.spe < self.n_spes {
                busy[s.spe] += s.end_ns - s.start_ns;
            }
        }
        busy
    }

    /// Nanoseconds of DMA traffic attributed to each SPE.
    pub fn dma_ns(&self) -> Vec<u64> {
        let mut dma = vec![0u64; self.n_spes];
        for s in &self.dmas {
            if s.spe < self.n_spes {
                dma[s.spe] += s.end_ns - s.start_ns;
            }
        }
        dma
    }

    /// Nanoseconds each SPE spent quarantined by the fault plane.
    pub fn quarantine_ns(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.n_spes];
        for s in &self.quarantines {
            if s.spe < self.n_spes {
                out[s.spe] += s.end_ns - s.start_ns;
            }
        }
        out
    }

    /// Nanoseconds each SPE sat idle over the makespan.
    pub fn idle_ns(&self) -> Vec<u64> {
        self.busy_ns()
            .into_iter()
            .map(|b| self.makespan_ns.saturating_sub(b))
            .collect()
    }

    /// Busy fraction of the makespan per SPE (0 when the run is empty).
    pub fn utilization(&self) -> Vec<f64> {
        let span = self.makespan_ns;
        self.busy_ns()
            .into_iter()
            .map(|b| if span == 0 { 0.0 } else { b as f64 / span as f64 })
            .collect()
    }

    /// Mean SPE utilization over the machine.
    pub fn mean_utilization(&self) -> f64 {
        if self.n_spes == 0 {
            return 0.0;
        }
        self.utilization().iter().sum::<f64>() / self.n_spes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::event::{EventRecord, SchedulerTag};

    fn log_with(events: Vec<(u64, EventKind)>) -> RunLog {
        RunLog {
            scheduler: SchedulerTag::Edtlp,
            n_spes: 4,
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
    fn task_spans_cover_every_team_member() {
        let log = log_with(vec![
            (0, EventKind::Offload { proc: 0, task: 0 }),
            (10, EventKind::TaskStart { proc: 0, task: 0, degree: 2, team: vec![1, 3] }),
            (110, EventKind::TaskEnd { proc: 0, task: 0, team: vec![1, 3] }),
        ]);
        let tl = Timeline::from_log(&log);
        assert_eq!(tl.tasks.len(), 2);
        assert_eq!(tl.busy_ns(), vec![0, 100, 0, 100]);
        assert_eq!(tl.makespan_ns, 110);
        assert_eq!(tl.idle_ns(), vec![110, 10, 110, 10]);
        let u = tl.utilization();
        assert!((u[1] - 100.0 / 110.0).abs() < 1e-12);
        assert!((tl.mean_utilization() - (2.0 * (100.0 / 110.0)) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn dma_spans_extend_the_makespan() {
        let log = log_with(vec![(
            50,
            EventKind::DmaComplete { spe: 2, bytes: 4096, latency_ns: 30 },
        )]);
        let tl = Timeline::from_log(&log);
        assert_eq!(tl.dmas, vec![DmaSpan { spe: 2, bytes: 4096, start_ns: 50, end_ns: 80 }]);
        assert_eq!(tl.makespan_ns, 80);
        assert_eq!(tl.dma_ns(), vec![0, 0, 30, 0]);
    }

    #[test]
    fn quarantine_spans_close_on_readmission_or_run_end() {
        let log = log_with(vec![
            (10, EventKind::SpeQuarantined { spe: 1, faults: 3 }),
            (40, EventKind::SpeReadmitted { spe: 1 }),
            (50, EventKind::SpeQuarantined { spe: 3, faults: 3 }),
            (90, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (100, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
        ]);
        let tl = Timeline::from_log(&log);
        assert_eq!(
            tl.quarantines,
            vec![
                QuarantineSpan { spe: 1, start_ns: 10, end_ns: 40 },
                // Never re-admitted: benched to the end of the run.
                QuarantineSpan { spe: 3, start_ns: 50, end_ns: 100 },
            ]
        );
        assert_eq!(tl.quarantine_ns(), vec![0, 30, 0, 50]);
    }

    #[test]
    fn granularity_verdicts_fold_as_point_marks() {
        let log = log_with(vec![
            (
                5,
                EventKind::GranularityVerdict {
                    kernel: KernelKind::Evaluate,
                    offload: false,
                    throttled: true,
                    reprobe: false,
                },
            ),
            (
                90,
                EventKind::GranularityVerdict {
                    kernel: KernelKind::Evaluate,
                    offload: true,
                    throttled: true,
                    reprobe: true,
                },
            ),
        ]);
        let tl = Timeline::from_log(&log);
        assert_eq!(
            tl.verdicts,
            vec![
                VerdictMark { at_ns: 5, kernel: KernelKind::Evaluate, offload: false, reprobe: false },
                VerdictMark { at_ns: 90, kernel: KernelKind::Evaluate, offload: true, reprobe: true },
            ]
        );
        assert_eq!(tl.makespan_ns, 90, "verdicts advance the fold's clock");
    }

    #[test]
    fn unterminated_tasks_are_dropped() {
        let log = log_with(vec![(
            10,
            EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] },
        )]);
        let tl = Timeline::from_log(&log);
        assert!(tl.tasks.is_empty());
        assert_eq!(tl.busy_ns(), vec![0; 4]);
    }
}
