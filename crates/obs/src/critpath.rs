//! Critical-path extraction and what-if replay over a [`RunLog`].
//!
//! [`CriticalPath::from_log`] walks the run's dependency structure
//! *backward* from the last task to finish, covering the interval
//! `[0, makespan]` with non-overlapping segments and blaming each segment
//! on one of the five granularity-inequality phases. Because the covering
//! is exact, the per-phase blame sums to the makespan to the nanosecond —
//! the answer to "which term bounds this run" is a partition, not an
//! estimate.
//!
//! ## The walk
//!
//! From the current task's execution interval `[start, end]` the walk
//! blames the task's code-reload stall (`t_code`), its DMA latency
//! (`t_comm`), and the remainder (`t_spe`). It then asks why the task did
//! not start earlier:
//!
//! 1. **Resource predecessor** — another task was still occupying SPEs
//!    after this task's off-load (its end lies in `(offload, start]`).
//!    The gap from that task's end to this start is queueing: `t_wait`.
//!    The walk continues at the blocking task.
//! 2. **Spawn predecessor** — no task blocked it, so the delay before the
//!    off-load is the owning process computing on the PPE. The gap
//!    `[offload, start]` is `t_wait` (grant latency), and the gap from the
//!    process's previous task end to the off-load is `t_ppe`. The walk
//!    continues at that previous task.
//! 3. **Run start** — no predecessor at all: `[0, offload]` is the
//!    process's initial PPE section, blamed `t_ppe`, and the walk ends.
//!
//! Ties (two candidate predecessors ending at the same instant) break
//! deterministically toward the higher task id, so the path is a pure
//! function of the log.
//!
//! The walk reads the one task record, [`PhaseBreakdown`]'s
//! [`OffloadPhases`]: a task's code stall and DMA latency are priced there
//! and nowhere else.
//!
//! ## What-if replay
//!
//! [`what_if`] replays the recorded per-process task chains through a
//! greedy list scheduler over an altered machine: more SPEs, scaled DMA
//! latency, or a forced LLP degree ([`WhatIf`]). Recorded PPE gaps between
//! a task's end and the next off-load are preserved per process; SPE
//! demand is the task's team size. With identity knobs the replay
//! reproduces the recorded makespan (validated in tests against the
//! simulator), which is what licenses trusting it off the recorded point.
//!
//! [`RunLog`]: cellsim::event::RunLog

use std::collections::{BTreeMap, HashMap, HashSet};

use cellsim::event::RunLog;

use crate::phases::{OffloadPhases, PhaseBreakdown};

/// The five phases of the paper's granularity inequality, as blame
/// categories for makespan accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// PPE-side computation (`t_ppe`).
    Ppe,
    /// Off-load queueing delay (`t_wait`).
    Wait,
    /// SPE execution (`t_spe`).
    Spe,
    /// Code-image reload stall (`t_code`).
    Code,
    /// DMA transfer latency (`t_comm`).
    Comm,
}

impl Phase {
    /// All phases, in blame-table order.
    pub const ALL: [Phase; 5] = [Phase::Ppe, Phase::Wait, Phase::Spe, Phase::Code, Phase::Comm];

    /// The inequality's name for the phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Ppe => "t_ppe",
            Phase::Wait => "t_wait",
            Phase::Spe => "t_spe",
            Phase::Code => "t_code",
            Phase::Comm => "t_comm",
        }
    }
}

/// Nanoseconds per phase: a critical path's makespan blame, whose five
/// fields sum to the makespan exactly (the walk partitions
/// `[0, makespan]`), or a run's per-phase sums over every off-load
/// ([`PhaseBreakdown::totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBlame {
    /// Blamed on PPE computation.
    pub t_ppe_ns: u64,
    /// Blamed on off-load queueing.
    pub t_wait_ns: u64,
    /// Blamed on SPE execution.
    pub t_spe_ns: u64,
    /// Blamed on code reload stalls.
    pub t_code_ns: u64,
    /// Blamed on DMA latency.
    pub t_comm_ns: u64,
}

impl PhaseBlame {
    /// Blame assigned to one phase.
    pub fn get(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Ppe => self.t_ppe_ns,
            Phase::Wait => self.t_wait_ns,
            Phase::Spe => self.t_spe_ns,
            Phase::Code => self.t_code_ns,
            Phase::Comm => self.t_comm_ns,
        }
    }

    /// Sum over all phases (equals the makespan for a completed walk).
    pub fn total(&self) -> u64 {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
    }
}

/// The critical path of one run with per-phase makespan blame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// End of the last task, ns — the quantity the blame partitions.
    pub makespan_ns: u64,
    /// Tasks on the path, in execution order.
    pub steps: Vec<OffloadPhases>,
    /// Which phase each nanosecond of the makespan waits on.
    pub blame: PhaseBlame,
}

impl CriticalPath {
    /// Extract the critical path of `log`. Empty runs (no completed task)
    /// yield the default value.
    pub fn from_log(log: &RunLog) -> CriticalPath {
        CriticalPath::walk(&by_task(log))
    }

    /// The walk over the run's off-loads. Each predecessor is the last
    /// unvisited entry of a sorted index below a binary-searched bound, so
    /// the walk is O(n log n) in the task count however long the path is.
    fn walk(recs: &[OffloadPhases]) -> CriticalPath {
        let mut cp = CriticalPath::default();
        let mut by_end = EndIndex::new(recs, |_| 0);
        let mut by_proc_end = EndIndex::new(recs, |r| r.proc);
        let mut visited: HashSet<u64> = HashSet::new();
        let Some(mut cur) = by_end.last_unvisited(&visited, (0, u64::MAX)) else {
            return cp;
        };
        cp.makespan_ns = cur.end_ns;
        loop {
            visited.insert(cur.task);
            cp.enter(cur);
            // 1. Resource predecessor: a task still running after our
            //    off-load, whose completion let us start.
            if let Some(p) = by_end
                .last_unvisited(&visited, (0, cur.start_ns))
                .filter(|p| p.end_ns > cur.offload_ns)
            {
                cp.blame.t_wait_ns += cur.start_ns - p.end_ns;
                cur = p;
                continue;
            }
            cp.blame.t_wait_ns += cur.start_ns - cur.offload_ns;
            // 2. Spawn predecessor: our process's previous task, whose end
            //    started the PPE section that led to our off-load.
            if let Some(q) = by_proc_end
                .last_unvisited(&visited, (cur.proc, cur.offload_ns))
                .filter(|q| q.proc == cur.proc)
            {
                cp.blame.t_ppe_ns += cur.offload_ns - q.end_ns;
                cur = q;
                continue;
            }
            // 3. Run start.
            cp.blame.t_ppe_ns += cur.offload_ns;
            break;
        }
        cp.steps.reverse();
        cp
    }

    /// Put `cur` on the path and blame its execution interval.
    fn enter(&mut self, cur: &OffloadPhases) {
        let (code, comm, spe) = exec_terms(cur);
        self.blame.t_code_ns += code;
        self.blame.t_comm_ns += comm;
        self.blame.t_spe_ns += spe;
        self.steps.push(*cur);
    }

    /// The phase with the largest blame (first in [`Phase::ALL`] order on
    /// a tie).
    pub fn dominant(&self) -> Phase {
        let mut best = Phase::Ppe;
        for &p in &Phase::ALL {
            if self.blame.get(p) > self.blame.get(best) {
                best = p;
            }
        }
        best
    }
}

/// Machine/scheduling alterations for a [`what_if`] replay. The default
/// value changes nothing (identity replay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIf {
    /// SPEs added to the pool ("+1 SPE").
    pub extra_spes: usize,
    /// Multiplier on recorded DMA latency (0.5 ≙ doubled bandwidth).
    pub dma_scale: f64,
    /// Force every task to this LLP degree; SPE time scales by
    /// `recorded_degree / new_degree` (the paper's linear-LLP idealization).
    pub degree_override: Option<usize>,
}

impl Default for WhatIf {
    fn default() -> Self {
        WhatIf { extra_spes: 0, dma_scale: 1.0, degree_override: None }
    }
}

/// Verdict of a [`what_if`] replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfOutcome {
    /// Recorded makespan (last task end), ns.
    pub baseline_makespan_ns: u64,
    /// Replayed makespan under the altered machine, ns.
    pub predicted_makespan_ns: u64,
    /// `baseline / predicted` (1.0 for an empty run).
    pub speedup: f64,
}

/// Replay `log`'s task chains through a greedy list scheduler under
/// `knobs` and predict the resulting makespan.
pub fn what_if(log: &RunLog, knobs: WhatIf) -> WhatIfOutcome {
    let recs = by_task(log);
    let baseline = recs.iter().map(|r| r.end_ns).max().unwrap_or(0);
    let n_spes = (log.n_spes + knobs.extra_spes).max(1);

    // Per-process chains in off-load (task-id) order, with the recorded
    // PPE gap preceding each task: gap_0 = offload_0, gap_i = offload_i −
    // end_{i−1}. The gaps are what the replay preserves; starts and ends
    // are recomputed.
    let mut chains: BTreeMap<usize, Vec<(u64, &OffloadPhases)>> = BTreeMap::new();
    for r in &recs {
        let chain = chains.entry(r.proc).or_default();
        let prev_end = chain.last().map(|&(_, p)| p.end_ns).unwrap_or(0);
        chain.push((r.offload_ns.saturating_sub(prev_end), r));
    }

    // Greedy simulation: each process is a sequential chain; SPEs are a
    // homogeneous server pool; the earliest-ready process is granted next
    // (FIFO in replayed off-load order), taking the `degree` earliest-free
    // servers and starting when the last of them frees.
    let mut free = vec![0u64; n_spes];
    let procs: Vec<usize> = chains.keys().copied().collect();
    let mut next: HashMap<usize, usize> = procs.iter().map(|&p| (p, 0)).collect();
    let mut ready: HashMap<usize, u64> =
        procs.iter().map(|&p| (p, chains[&p][0].0)).collect();
    let mut makespan = 0u64;
    while let Some(&proc) = procs
        .iter()
        .filter(|p| next[p] < chains[p].len())
        .min_by_key(|p| (ready[p], **p))
    {
        let i = next[&proc];
        let (_, r) = chains[&proc][i];
        let exec = scaled_exec(r, n_spes, knobs);
        let degree = effective_degree(r, n_spes, knobs);
        free.sort_unstable();
        let start = ready[&proc].max(free[degree - 1]);
        let end = start + exec;
        for slot in free.iter_mut().take(degree) {
            *slot = end;
        }
        makespan = makespan.max(end);
        next.insert(proc, i + 1);
        if i + 1 < chains[&proc].len() {
            ready.insert(proc, end + chains[&proc][i + 1].0);
        }
    }

    let speedup = if makespan == 0 { 1.0 } else { baseline as f64 / makespan as f64 };
    WhatIfOutcome {
        baseline_makespan_ns: baseline,
        predicted_makespan_ns: makespan,
        speedup,
    }
}

fn effective_degree(r: &OffloadPhases, n_spes: usize, knobs: WhatIf) -> usize {
    knobs
        .degree_override
        .unwrap_or(r.degree.max(1))
        .clamp(1, n_spes)
}

/// A task's execution time under the knobs: the code stall is fixed, DMA
/// latency scales with bandwidth, and the compute remainder scales
/// inversely with the LLP degree (ideal work-sharing).
fn scaled_exec(r: &OffloadPhases, n_spes: usize, knobs: WhatIf) -> u64 {
    let (code, comm, spe) = exec_terms(r);
    let d0 = r.degree.max(1);
    let d1 = effective_degree(r, n_spes, knobs);
    let spe_scaled = (spe as f64 * d0 as f64 / d1 as f64).round() as u64;
    let comm_scaled = (comm as f64 * knobs.dma_scale).round() as u64;
    code + spe_scaled + comm_scaled
}

/// A task's execution interval split into its code stall, its DMA latency
/// and the compute remainder, in that order of precedence: each term is
/// capped by what the interval has left, so the three sum to the interval.
fn exec_terms(r: &OffloadPhases) -> (u64, u64, u64) {
    let exec = r.end_ns - r.start_ns;
    let code = r.t_code_ns.min(exec);
    let comm = r.t_comm_ns.min(exec - code);
    (code, comm, exec - code - comm)
}

/// The run's completed off-loads in task-id (off-load) order — the order
/// [`EndIndex`] and the what-if chains rely on.
fn by_task(log: &RunLog) -> Vec<OffloadPhases> {
    let mut recs = PhaseBreakdown::from_log(log).offloads;
    recs.sort_by_key(|r| r.task);
    recs
}

/// The run's tasks in ascending `(group, end_ns, task)` order, for
/// "latest-ending unvisited task of this group at or before `t`" queries.
/// The walk only ever marks tasks visited, so positions found visited are
/// linked past once and never scanned again.
struct EndIndex<'a> {
    recs: &'a [OffloadPhases],
    /// `(group, end_ns)` then the record's index, sorted; records arrive
    /// in task order and the sort is stable, so ties on the key stay in
    /// task order and the last of a run is the highest task id.
    order: Vec<((usize, u64), usize)>,
    /// `below[hi]` ≤ `hi`, and every entry of `order[below[hi]..hi]` is
    /// visited.
    below: Vec<usize>,
}

impl<'a> EndIndex<'a> {
    fn new(recs: &'a [OffloadPhases], group: impl Fn(&OffloadPhases) -> usize) -> EndIndex<'a> {
        let mut order: Vec<_> =
            recs.iter().enumerate().map(|(i, r)| ((group(r), r.end_ns), i)).collect();
        order.sort_by_key(|&(key, _)| key);
        EndIndex { recs, below: (0..=order.len()).collect(), order }
    }

    /// The unvisited record with the greatest `(group, end_ns, task)` whose
    /// `(group, end_ns)` is at most `bound` — possibly of a lower group,
    /// which the caller rules out.
    fn last_unvisited(
        &mut self,
        visited: &HashSet<u64>,
        bound: (usize, u64),
    ) -> Option<&'a OffloadPhases> {
        let from = self.order.partition_point(|&(key, _)| key <= bound);
        let mut hi = from;
        let found = loop {
            if self.below[hi] < hi {
                hi = self.below[hi];
            } else if hi == 0 {
                break None;
            } else if visited.contains(&self.recs[self.order[hi - 1].1].task) {
                self.below[hi] = hi - 1;
            } else {
                break Some(&self.recs[self.order[hi - 1].1]);
            }
        };
        // Compress: everything stepped over is visited down to `hi`.
        let mut at = from;
        while at > hi {
            at = std::mem::replace(&mut self.below[at], hi);
        }
        found
    }
}

/// The rescanning walk [`CriticalPath::walk`] replaced — every step
/// filters every task, O(steps × tasks) — kept as the oracle the indexed
/// walk is held to.
#[cfg(test)]
mod classic {
    use super::*;

    pub(super) fn walk(recs: &[OffloadPhases]) -> CriticalPath {
        let mut cp = CriticalPath::default();
        let Some(start) = recs.iter().max_by_key(|r| (r.end_ns, r.task)) else {
            return cp;
        };
        cp.makespan_ns = start.end_ns;
        let mut cur = start;
        let mut visited: HashSet<u64> = HashSet::new();
        loop {
            visited.insert(cur.task);
            let (code, comm, spe) = exec_terms(cur);
            cp.blame.t_code_ns += code;
            cp.blame.t_comm_ns += comm;
            cp.blame.t_spe_ns += spe;
            cp.steps.push(*cur);
            if let Some(p) = recs
                .iter()
                .filter(|t| {
                    !visited.contains(&t.task)
                        && t.end_ns <= cur.start_ns
                        && t.end_ns > cur.offload_ns
                })
                .max_by_key(|t| (t.end_ns, t.task))
            {
                cp.blame.t_wait_ns += cur.start_ns - p.end_ns;
                cur = p;
                continue;
            }
            cp.blame.t_wait_ns += cur.start_ns - cur.offload_ns;
            if let Some(q) = recs
                .iter()
                .filter(|t| {
                    !visited.contains(&t.task)
                        && t.proc == cur.proc
                        && t.end_ns <= cur.offload_ns
                })
                .max_by_key(|t| (t.end_ns, t.task))
            {
                cp.blame.t_ppe_ns += cur.offload_ns - q.end_ns;
                cur = q;
                continue;
            }
            cp.blame.t_ppe_ns += cur.offload_ns;
            break;
        }
        cp.steps.reverse();
        cp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::event::{EventKind, EventRecord, SchedulerTag};
    use proptest::prelude::*;

    /// Task sets built to collide: a handful of processes and instants, so
    /// equal `end_ns` across and within processes, zero-length tasks,
    /// `offload_ns == start_ns` and `end_ns == offload_ns` of a later task
    /// are the common case. A repeated task id (a log the checker would
    /// refuse, but the walk must still agree on) turns up now and then.
    struct TieHeavyTasks;

    impl Strategy for TieHeavyTasks {
        type Value = Vec<OffloadPhases>;
        fn generate(&self, rng: &mut TestRng) -> Vec<OffloadPhases> {
            let n = rng.below(40);
            let instants = 1 + rng.below(12);
            let mut recs: Vec<OffloadPhases> = (0..n)
                .map(|i| {
                    let mut at = [rng.below(instants), rng.below(instants), rng.below(instants)];
                    at.sort_unstable();
                    let exec = at[2] - at[1];
                    OffloadPhases {
                        task: if rng.below(16) == 0 { rng.below(n) } else { i },
                        proc: rng.below(3) as usize,
                        offload_ns: at[0],
                        start_ns: at[1],
                        end_ns: at[2],
                        degree: 1 + rng.below(4) as usize,
                        t_code_ns: rng.below(exec + 2),
                        t_comm_ns: rng.below(exec + 2),
                        ..OffloadPhases::default()
                    }
                })
                .collect();
            recs.sort_by_key(|r| r.task); // as `by_task` hands them over
            recs
        }
    }

    proptest! {
        #[test]
        fn the_indexed_walk_equals_the_rescanning_one_under_ties(recs in TieHeavyTasks) {
            let cp = CriticalPath::walk(&recs);
            prop_assert_eq!(&cp, &classic::walk(&recs));
            prop_assert_eq!(cp.blame.total(), cp.makespan_ns);
        }
    }

    #[test]
    fn the_indexed_walk_equals_the_rescanning_one_on_benchmark_and_faulted_runs() {
        for log in crate::testlogs::oracle_logs() {
            let recs = by_task(log);
            let cp = CriticalPath::walk(&recs);
            assert!(cp.steps.len() > 1, "{} seed {}: a path to compare", log.scheduler, log.seed);
            assert_eq!(cp, classic::walk(&recs), "{} seed {}", log.scheduler, log.seed);
        }
    }

    fn log_with(events: Vec<(u64, EventKind)>) -> RunLog {
        RunLog {
            scheduler: SchedulerTag::Edtlp,
            n_spes: 2,
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

    /// Two tasks chained on one process: the blame partitions the
    /// makespan into the initial PPE section, grant waits, exec time, the
    /// inter-task PPE gap, and the second task's code stall.
    #[test]
    fn spawn_chain_blame_partitions_the_makespan() {
        let log = log_with(vec![
            (100, EventKind::Offload { proc: 0, task: 0 }),
            (110, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (110, EventKind::DmaComplete { spe: 0, bytes: 2048, latency_ns: 20 }),
            (310, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
            (400, EventKind::Offload { proc: 0, task: 1 }),
            (400, EventKind::CodeReload { spe: 1, stall_ns: 30 }),
            (400, EventKind::TaskStart { proc: 0, task: 1, degree: 1, team: vec![1] }),
            (700, EventKind::TaskEnd { proc: 0, task: 1, team: vec![1] }),
        ]);
        let cp = CriticalPath::from_log(&log);
        assert_eq!(cp.makespan_ns, 700);
        assert_eq!(cp.steps.iter().map(|s| s.task).collect::<Vec<_>>(), vec![0, 1]);
        // Partition: [0,100] ppe, [100,110] wait, [110,310] exec of task 0
        // (20 ns comm + 180 ns spe), [310,400] ppe, [400,700] exec of
        // task 1 (30 ns code + 270 ns spe).
        assert_eq!(cp.blame.t_ppe_ns, 100 + 90);
        assert_eq!(cp.blame.t_wait_ns, 10);
        assert_eq!(cp.blame.t_code_ns, 30);
        assert_eq!(cp.blame.t_comm_ns, 20);
        assert_eq!(cp.blame.t_spe_ns, 180 + 270);
        assert_eq!(cp.blame.total(), cp.makespan_ns);
        assert_eq!(cp.dominant(), Phase::Spe);
    }

    /// A task queued behind another process's task: the walk crosses to
    /// the blocking task and blames the queueing gap on `t_wait`.
    #[test]
    fn resource_predecessor_is_blamed_as_wait() {
        let log = log_with(vec![
            (0, EventKind::Offload { proc: 0, task: 0 }),
            (0, EventKind::TaskStart { proc: 0, task: 0, degree: 2, team: vec![0, 1] }),
            (10, EventKind::Offload { proc: 1, task: 1 }),
            (500, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0, 1] }),
            (500, EventKind::TaskStart { proc: 1, task: 1, degree: 1, team: vec![0] }),
            (600, EventKind::TaskEnd { proc: 1, task: 1, team: vec![0] }),
        ]);
        let cp = CriticalPath::from_log(&log);
        assert_eq!(cp.steps.iter().map(|s| s.task).collect::<Vec<_>>(), vec![0, 1]);
        // [0,500] task 0 exec, [500,500] zero wait, [500,600] task 1 exec;
        // proc 1's off-load at 10 never appears: the path explains its
        // start with the blocking task, not its own spawn.
        assert_eq!(cp.blame.t_spe_ns, 600);
        assert_eq!(cp.blame.t_wait_ns, 0);
        assert_eq!(cp.blame.total(), cp.makespan_ns);
        assert_eq!(cp.dominant(), Phase::Spe);
    }

    #[test]
    fn empty_log_yields_the_default_path() {
        let cp = CriticalPath::from_log(&log_with(vec![]));
        assert_eq!(cp, CriticalPath::default());
        assert_eq!(cp.blame.total(), 0);
    }

    /// Identity knobs replay a contention-free log exactly.
    #[test]
    fn identity_replay_reproduces_a_simple_log() {
        let log = log_with(vec![
            (100, EventKind::Offload { proc: 0, task: 0 }),
            (100, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (300, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
            (350, EventKind::Offload { proc: 0, task: 1 }),
            (350, EventKind::TaskStart { proc: 0, task: 1, degree: 1, team: vec![0] }),
            (600, EventKind::TaskEnd { proc: 0, task: 1, team: vec![0] }),
        ]);
        let out = what_if(&log, WhatIf::default());
        assert_eq!(out.baseline_makespan_ns, 600);
        assert_eq!(out.predicted_makespan_ns, 600);
        assert!((out.speedup - 1.0).abs() < 1e-12);
    }

    /// Two single-SPE-queued processes stop contending once an SPE is
    /// added: the replay overlaps them.
    #[test]
    fn extra_spe_relieves_queueing() {
        let mut log = log_with(vec![
            (0, EventKind::Offload { proc: 0, task: 0 }),
            (0, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (0, EventKind::Offload { proc: 1, task: 1 }),
            (400, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
            (400, EventKind::TaskStart { proc: 1, task: 1, degree: 1, team: vec![0] }),
            (800, EventKind::TaskEnd { proc: 1, task: 1, team: vec![0] }),
        ]);
        log.n_spes = 1;
        let base = what_if(&log, WhatIf::default());
        assert_eq!(base.predicted_makespan_ns, 800);
        let plus_one = what_if(&log, WhatIf { extra_spes: 1, ..WhatIf::default() });
        assert_eq!(plus_one.predicted_makespan_ns, 400);
        assert!((plus_one.speedup - 2.0).abs() < 1e-12);
    }

    /// Forcing degree 2 halves the compute term and occupies both SPEs.
    #[test]
    fn degree_override_scales_compute() {
        let log = log_with(vec![
            (0, EventKind::Offload { proc: 0, task: 0 }),
            (0, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (400, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
        ]);
        let out = what_if(&log, WhatIf { degree_override: Some(2), ..WhatIf::default() });
        assert_eq!(out.predicted_makespan_ns, 200);
    }

    /// Halving DMA latency shortens only the comm term.
    #[test]
    fn dma_scale_shrinks_the_comm_term() {
        let log = log_with(vec![
            (0, EventKind::Offload { proc: 0, task: 0 }),
            (0, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (0, EventKind::DmaComplete { spe: 0, bytes: 2048, latency_ns: 100 }),
            (400, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
        ]);
        let out = what_if(&log, WhatIf { dma_scale: 0.5, ..WhatIf::default() });
        assert_eq!(out.predicted_makespan_ns, 350);
    }
}
