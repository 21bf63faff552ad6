//! The schedule-invariant checker.
//!
//! [`check_run`] replays a [`RunLog`] event by event and verifies every
//! invariant the paper's scheduling model promises, *recomputing* running
//! state (SPE occupancy, local-store budgets, mailbox depths, loop degree)
//! rather than trusting the recorded summaries. Each broken invariant
//! becomes a [`Violation`] carrying the rule name, the offending event's
//! sequence number, and a human-readable explanation.
//!
//! ## Native mode
//!
//! [`check_run_with`] takes a [`CheckMode`]. [`CheckMode::Simulated`] is
//! the full catalog below. [`CheckMode::Native`] checks a log drained from
//! the native runtime's span tracer (`mgps-obs::runlog_from_trace`), where
//! some simulator guarantees are structurally unobtainable and checking
//! them would report scheduler bugs that are really clock artifacts:
//!
//! * `fifo-order` is skipped — task ids are assigned per off-load across
//!   preemptively scheduled host threads, so start order is not id order;
//! * EDTLP context switches are required to *follow* an off-load by the
//!   yielding process, not to share its exact nanosecond (the native gate
//!   re-acquires after the off-load completes);
//! * the degree in force is not pinned between `DegreeDecision` events
//!   (decisions and grants interleave across threads); a task's team must
//!   still match its own recorded degree;
//! * `spe-overlap` occupancy is not policed (virtual SPEs are host
//!   threads; the pool's dispatch already serializes them) — per-SPE busy
//!   accounting mirrors the timeline fold instead;
//! * chunk coverage is verified against the *task's own* recorded
//!   iteration count (native loops differ per site), workers with empty
//!   ranges legitimately send no chunk, and `loop_iters` in the log
//!   header is 0.
//!
//! [`check_trace_sanity`] checks the drained trace itself, before any
//! merge: per-ring causal order and ring-overflow drop counts (`trace-
//! drops`), which the merged log can no longer see.
//!
//! ## Invariant catalog
//!
//! | rule | invariant |
//! |------|-----------|
//! | `causal-time` | event timestamps never decrease; sequence numbers are dense from 0 |
//! | `fifo-order` | tasks start in off-load (FIFO queue) order |
//! | `task-lifecycle` | every task starts once after its off-load and ends once on the team that started it |
//! | `spe-overlap` | no SPE executes two tasks at the same time |
//! | `local-store` | per-SPE buffer accounting never exceeds the 256 KB local store and never goes negative |
//! | `dma-legality` | every DMA element is 1/2/4/8 bytes or a 16-byte multiple, at most 16 KB, 16-byte aligned, in a list of at most 2,048 elements |
//! | `mailbox` | mailbox occupancy stays within hardware capacity (4/1/1) and never goes negative |
//! | `ctx-switch` | EDTLP-family schedulers switch contexts only at off-load points; the Linux baseline only at quantum expiry after a full quantum |
//! | `mgps-degree` | MGPS loop degrees stay in `1..=max(1, floor(n_spes/waiting))`, the utilization window is exactly `n_spes` long and never over-filled, and only MGPS runs make degree decisions |
//! | `chunk-coverage` | each work-shared loop is partitioned into exactly `degree` chunks that tile `0..loop_iters` with one chunk per team member |
//! | `fault-policy` | a `fault_policy` header, when present, parses back into a legal fault plan |
//! | `fault-recovery` | fault/retry/fallback events appear only under a declared plan; retries are sequential with the declared backoff and bounded by `max_retries`; every faulted (or, when armed, merely off-loaded) task is resolved exactly once — retried to completion, fallen back, or flagged lost — never duplicated; each `JobRetried`/`JobPoisoned` absorbs one unresolved task (the kernel off-load whose unrecovered death it answered) |
//! | `quarantine` | quarantine intervals per SPE are exclusive (enter once, leave once, in order), entry requires `k` consecutive faults, and no quarantined SPE is granted work |
//! | `job-lifecycle` | serve-plane jobs are admitted once (rejected ids never admitted), starts follow admission order within a tenant (FIFO), recorded queue depths match the replayed [`Drr`]'s length (admissions + retries − starts − sheds) and never exceed the declared bound, every admitted job reaches a terminal, and a completion's four terms partition its admission-to-completion span exactly — accumulated across attempts |
//! | `job-retry` | every admitted job reaches *exactly one* terminal (`JobCompleted`/`JobShed`/`JobPoisoned`); attempt numbers are dense per job (each `JobStarted` carries the last retry's attempt, each `JobRetried` increments by one, bounded by the declared `jobr` budget); retry backoffs equal the declared plan's recomputed `backoff_ns`; retries/poisonings require an armed fault plan and an in-flight job; a shed job was queued with a declared deadline that had genuinely expired; a poisoning records exactly `job_retries + 1` attempts |
//! | `tenant-fairness` | when the header declares `tenant_weights`, dispatch order replays exactly under deficit round-robin: each `JobStarted` is the front of the ring head's line, each `JobShed` the front of its tenant's line — replayed with the serve plane's own queue type, [`Drr`], not a copy of it |
//!
//! Three relaxations apply when a fault plan is armed (`fault_policy`
//! header present): `fifo-order` is skipped (watchdog retries legally
//! re-enter the queue out of id order), the degree in force is not
//! pinned between `DegreeDecision` events (grants clamp to the healthy-SPE
//! count, which the decision stream cannot see), and a rejection's
//! recorded depth may exceed the declared bound (job retries re-enter the
//! queue past the admission gate).
//!
//! Names are not checked here. A verdict's kernel, an injected fault's
//! kind and a health alarm's slug and severity are typed in the event
//! table (`KernelKind`, `FaultKind`, `AlarmKind`, `Severity`), so
//! [`RunLog::from_value`] refuses an unknown slug as a mistyped field and
//! no log the checker can be handed holds one.

use std::collections::{BTreeMap, HashMap};

use cellsim::event::{EventKind, MailboxKind, RunLog, SchedulerTag, SwitchReason};
use cellsim::params::{DMA_ALIGNMENT, DMA_MAX_LIST_LEN, DMA_MAX_TRANSFER_BYTES};
use mgps_runtime::faults::FaultPlan;
use mgps_runtime::policy::Drr;
use mgps_runtime::tracing::TraceLog;

/// What produced the log under check, selecting which invariants apply
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// A `cellsim` discrete-event log: the full invariant catalog.
    Simulated,
    /// A native-runtime span trace merged into [`RunLog`] form.
    Native,
}

/// One broken invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke (see the module-level catalog).
    pub rule: &'static str,
    /// Sequence number of the offending event, when one event is to blame
    /// (`None` for whole-log properties such as a task that never ended).
    pub seq: Option<u64>,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.seq {
            Some(seq) => write!(f, "[{}] event {}: {}", self.rule, seq, self.message),
            None => write!(f, "[{}] {}", self.rule, self.message),
        }
    }
}

/// The checker's verdict over one run.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Every violation found, in event order.
    pub violations: Vec<Violation>,
    /// Events examined.
    pub events_checked: usize,
    /// Distinct tasks that started.
    pub tasks_checked: usize,
    /// Nanoseconds each SPE spent occupied by a task, recomputed from the
    /// `TaskStart`/`TaskEnd` replay (indexed by SPE). Trace exporters are
    /// validated against this accounting.
    pub spe_busy_ns: Vec<u64>,
    /// Ring-overflow drops reported by [`check_trace_sanity`] (always 0
    /// for [`check_run`]: a merged log cannot see what was never recorded).
    pub dropped_events: u64,
}

impl CheckReport {
    /// True when no invariant broke.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One line per violation (empty string when clean).
    pub fn render(&self) -> String {
        self.violations.iter().map(|v| format!("{v}\n")).collect()
    }
}

/// Per-job bookkeeping accumulated during the replay.
#[derive(Debug)]
struct JobState {
    tenant: usize,
    submit_seq: u64,
    submitted_ns: u64,
    /// Deadline the admission declared (0 = none).
    deadline_ns: u64,
    /// The job has started at least once.
    started: bool,
    /// Currently executing: started, not yet retried or terminal.
    in_flight: bool,
    /// Attempt number the most recent start carried — which is also the
    /// attempt the *next* start must carry (a retry bumps it first).
    attempt: u64,
    /// The terminal this job reached, if any (exactly one is legal).
    terminal: Option<&'static str>,
}

/// Per-task bookkeeping accumulated during the replay.
#[derive(Debug)]
struct TaskInfo {
    proc: usize,
    start_seq: u64,
    start_ns: u64,
    degree: usize,
    team: Vec<usize>,
    chunks: Vec<(usize, usize, usize, usize)>, // (start, len, worker, loop_iters)
    ended: bool,
}

/// Statically verify every schedule invariant of `log` (simulator rules).
pub fn check_run(log: &RunLog) -> CheckReport {
    check_run_with(log, CheckMode::Simulated)
}

/// Statically verify the schedule invariants of `log` under `mode`.
pub fn check_run_with(log: &RunLog, mode: CheckMode) -> CheckReport {
    let mut report = CheckReport { events_checked: log.events.len(), ..CheckReport::default() };
    let v = &mut report.violations;

    let n_spes = log.n_spes;
    // Replay state, all recomputed from scratch.
    let mut spe_busy_ns: Vec<u64> = vec![0; n_spes];
    let mut prev_at: u64 = 0;
    let mut busy: Vec<Option<u64>> = vec![None; n_spes]; // task occupying each SPE
    let mut busy_since: Vec<u64> = vec![0; n_spes]; // start ns of the occupant
    let mut ls_in_use: Vec<usize> = vec![0; n_spes];
    let mut mailbox_occ: Vec<[usize; 3]> = vec![[0; 3]; n_spes];
    let mut offloaded: BTreeMap<u64, (usize, u64)> = BTreeMap::new(); // task -> (proc, seq)
    let mut last_offload_at: HashMap<usize, u64> = HashMap::new(); // proc -> at_ns
    let mut tasks: BTreeMap<u64, TaskInfo> = BTreeMap::new();
    let mut last_started: Option<u64> = None;
    let mut expected_degree: usize = initial_degree(log.scheduler);

    // Fault-plane replay state. The header's canonical spec rebuilds the
    // exact plan, letting the checker recompute the declared backoff
    // sequence instead of trusting the recorded values.
    let plan: Option<FaultPlan> = match log.fault_policy.as_deref() {
        None => None,
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(p) => Some(p),
            Err(err) => {
                v.push(Violation {
                    rule: "fault-policy",
                    seq: None,
                    message: format!("unparseable fault_policy header '{spec}': {err}"),
                });
                None
            }
        },
    };
    let armed = plan.is_some();
    let mut task_faults: BTreeMap<u64, u64> = BTreeMap::new(); // task -> faults seen
    let mut task_fallback: HashMap<u64, u64> = HashMap::new(); // task -> fallback seq
    let mut task_retry_next: HashMap<u64, u64> = HashMap::new(); // task -> expected attempt
    let mut in_quarantine: Vec<bool> = vec![false; n_spes];

    // Job-plane replay state. The admission queue is the serve plane's own
    // policy type replayed over job ids: its length is the occupancy, its
    // lines the within-tenant FIFO, its ring the order `tenant-fairness`
    // holds starts and sheds to — under a `tenant_weights` header only, as
    // old logs and equal-weight runs (which omit it) dispatch global FIFO.
    let mut jobs: BTreeMap<u64, JobState> = BTreeMap::new();
    let mut rejected_jobs: BTreeMap<u64, u64> = BTreeMap::new(); // job -> seq
    let mut queue: Drr<u64> = Drr::new(log.tenant_weights.clone().unwrap_or_default());
    let mut job_queue_cap: Option<usize> = None;
    let weighted = log.tenant_weights.is_some();
    let mut fairness: Vec<Violation> = Vec::new();
    // `JobRetried`/`JobPoisoned` records: each absorbs one lost task.
    let mut absorbed = 0usize;

    for (i, e) in log.events.iter().enumerate() {
        // causal-time: dense sequence numbers, monotone timestamps. Ties are
        // legal (many events share an instant); the recorded order *is* the
        // FIFO tie-break, so it must be reproducible from (at_ns, seq) alone.
        if e.seq != i as u64 {
            v.push(Violation {
                rule: "causal-time",
                seq: Some(e.seq),
                message: format!("sequence number {} at position {i} (must be dense from 0)", e.seq),
            });
        }
        if e.at_ns < prev_at {
            v.push(Violation {
                rule: "causal-time",
                seq: Some(e.seq),
                message: format!("timestamp {} ns precedes predecessor at {} ns", e.at_ns, prev_at),
            });
        }
        prev_at = prev_at.max(e.at_ns);

        match &e.kind {
            EventKind::Offload { proc, task } => {
                if let Some((other, prev_seq)) = offloaded.insert(*task, (*proc, e.seq)) {
                    v.push(Violation {
                        rule: "task-lifecycle",
                        seq: Some(e.seq),
                        message: format!(
                            "task {task} off-loaded twice (first by proc {other} at event {prev_seq})"
                        ),
                    });
                }
                last_offload_at.insert(*proc, e.at_ns);
            }
            EventKind::CtxSwitch { proc, reason, held_ns } => {
                check_ctx_switch(
                    log, mode, e.seq, e.at_ns, *proc, *reason, *held_ns, &last_offload_at, v,
                );
            }
            EventKind::TaskStart { proc, task, degree, team } => {
                check_task_start(
                    log, mode, armed, e.seq, *proc, *task, *degree, team, expected_degree,
                    &offloaded, &last_started, &mut busy, v,
                );
                for &spe in team {
                    if spe < n_spes {
                        busy_since[spe] = e.at_ns;
                        if in_quarantine[spe] {
                            v.push(Violation {
                                rule: "quarantine",
                                seq: Some(e.seq),
                                message: format!(
                                    "task {task} starts on SPE {spe} while it is quarantined"
                                ),
                            });
                        }
                    }
                }
                last_started = Some(*task);
                tasks.insert(
                    *task,
                    TaskInfo {
                        proc: *proc,
                        start_seq: e.seq,
                        start_ns: e.at_ns,
                        degree: *degree,
                        team: team.clone(),
                        chunks: Vec::new(),
                        ended: false,
                    },
                );
            }
            EventKind::TaskEnd { proc, task, team } => {
                // Accumulate busy time before the replay state is cleared.
                match mode {
                    // Only SPEs genuinely occupied by this task count.
                    CheckMode::Simulated => {
                        for &spe in team {
                            if spe < n_spes && busy[spe] == Some(*task) {
                                spe_busy_ns[spe] += e.at_ns.saturating_sub(busy_since[spe]);
                            }
                        }
                    }
                    // Occupancy is not policed natively: mirror the
                    // timeline fold (each team member is busy from the
                    // task's start to its end).
                    CheckMode::Native => {
                        if let Some(info) = tasks.get(task) {
                            for &spe in &info.team {
                                if spe < n_spes {
                                    spe_busy_ns[spe] +=
                                        e.at_ns.saturating_sub(info.start_ns);
                                }
                            }
                        }
                    }
                }
                check_task_end(mode, e.seq, *proc, *task, team, &mut tasks, &mut busy, v);
            }
            EventKind::Dma { spe, element_bytes, local_addr, main_addr } => {
                check_dma(e.seq, *spe, element_bytes, *local_addr, *main_addr, n_spes, v);
            }
            EventKind::MailboxWrite { spe, mailbox, occupancy } => {
                check_mailbox(e.seq, *spe, *mailbox, *occupancy, true, &mut mailbox_occ, v);
            }
            EventKind::MailboxRead { spe, mailbox, occupancy } => {
                check_mailbox(e.seq, *spe, *mailbox, *occupancy, false, &mut mailbox_occ, v);
            }
            EventKind::LsAlloc { spe, bytes, in_use } => {
                if *spe >= n_spes {
                    v.push(bad_spe("local-store", e.seq, *spe, n_spes));
                } else {
                    ls_in_use[*spe] += bytes;
                    if ls_in_use[*spe] > log.local_store_bytes {
                        v.push(Violation {
                            rule: "local-store",
                            seq: Some(e.seq),
                            message: format!(
                                "SPE {spe} local store over capacity: {} of {} bytes reserved",
                                ls_in_use[*spe], log.local_store_bytes
                            ),
                        });
                    }
                    if ls_in_use[*spe] != *in_use {
                        v.push(Violation {
                            rule: "local-store",
                            seq: Some(e.seq),
                            message: format!(
                                "SPE {spe} recorded {in_use} bytes in use but the allocations sum to {}",
                                ls_in_use[*spe]
                            ),
                        });
                    }
                }
            }
            EventKind::LsFree { spe, bytes, in_use } => {
                if *spe >= n_spes {
                    v.push(bad_spe("local-store", e.seq, *spe, n_spes));
                } else if ls_in_use[*spe] < *bytes {
                    v.push(Violation {
                        rule: "local-store",
                        seq: Some(e.seq),
                        message: format!(
                            "SPE {spe} frees {bytes} bytes with only {} reserved (negative balance)",
                            ls_in_use[*spe]
                        ),
                    });
                    ls_in_use[*spe] = 0;
                } else {
                    ls_in_use[*spe] -= bytes;
                    if ls_in_use[*spe] != *in_use {
                        v.push(Violation {
                            rule: "local-store",
                            seq: Some(e.seq),
                            message: format!(
                                "SPE {spe} recorded {in_use} bytes in use but the allocations sum to {}",
                                ls_in_use[*spe]
                            ),
                        });
                    }
                }
            }
            EventKind::Chunk { task, loop_iters, start, len, worker } => {
                // The simulator runs one loop shape; native sites differ
                // per task, so each task's chunks carry (and must agree
                // on) their own iteration count, checked at end of log.
                if mode == CheckMode::Simulated && *loop_iters != log.loop_iters {
                    v.push(Violation {
                        rule: "chunk-coverage",
                        seq: Some(e.seq),
                        message: format!(
                            "chunk of task {task} claims {loop_iters} loop iterations; the run has {}",
                            log.loop_iters
                        ),
                    });
                }
                match tasks.get_mut(task) {
                    Some(info) => info.chunks.push((*start, *len, *worker, *loop_iters)),
                    None => v.push(Violation {
                        rule: "chunk-coverage",
                        seq: Some(e.seq),
                        message: format!("chunk for task {task} which never started"),
                    }),
                }
            }
            EventKind::CodeReload { spe, .. } => {
                if *spe >= n_spes {
                    v.push(bad_spe("spe-overlap", e.seq, *spe, n_spes));
                }
            }
            EventKind::DmaComplete { spe, .. } => {
                if *spe >= n_spes {
                    v.push(bad_spe("dma-legality", e.seq, *spe, n_spes));
                }
            }
            EventKind::DegreeDecision { degree, waiting, n_spes: dn, window, window_fill, .. } => {
                check_degree_decision(
                    log, e.seq, *degree, *waiting, *dn, *window, *window_fill, v,
                );
                expected_degree = *degree;
            }
            // Informational, and its alarm and severity are closed
            // vocabularies the decoder already enforces: nothing to check.
            EventKind::Health { .. } => {}
            EventKind::GranularityVerdict { kernel, offload, throttled, reprobe } => {
                // Informational, but with internally consistent flags: a
                // re-probe is by definition a granted off-load, and a PPE
                // verdict only happens to a throttled kernel.
                if *reprobe && !offload {
                    v.push(Violation {
                        rule: "granularity-schema",
                        seq: Some(e.seq),
                        message: format!(
                            "granularity verdict for '{kernel}' marks a re-probe without an off-load"
                        ),
                    });
                }
                if !offload && !throttled {
                    v.push(Violation {
                        rule: "granularity-schema",
                        seq: Some(e.seq),
                        message: format!(
                            "granularity verdict keeps '{kernel}' on the PPE without marking it throttled"
                        ),
                    });
                }
            }
            EventKind::FaultInjected { spe, task, attempt, .. } => {
                if !armed {
                    v.push(Violation {
                        rule: "fault-recovery",
                        seq: Some(e.seq),
                        message: format!(
                            "fault injected into task {task} but the log declares no fault policy"
                        ),
                    });
                }
                if *spe >= n_spes {
                    v.push(bad_spe("fault-recovery", e.seq, *spe, n_spes));
                } else if in_quarantine[*spe] {
                    v.push(Violation {
                        rule: "quarantine",
                        seq: Some(e.seq),
                        message: format!(
                            "fault on SPE {spe} while it is quarantined (must not be granted work)"
                        ),
                    });
                }
                if !offloaded.contains_key(task) {
                    v.push(Violation {
                        rule: "fault-recovery",
                        seq: Some(e.seq),
                        message: format!("fault for task {task} which was never off-loaded"),
                    });
                }
                let faults = task_faults.entry(*task).or_insert(0);
                *faults += 1;
                if *faults != attempt + 1 {
                    v.push(Violation {
                        rule: "fault-recovery",
                        seq: Some(e.seq),
                        message: format!(
                            "task {task} fault on attempt {attempt} but {faults} fault(s) recorded \
                             (every attempt up to here must have faulted)"
                        ),
                    });
                }
            }
            EventKind::OffloadRetry { task, attempt, backoff_ns } => {
                let expected = task_retry_next.get(task).copied().unwrap_or(1);
                if *attempt != expected {
                    v.push(Violation {
                        rule: "fault-recovery",
                        seq: Some(e.seq),
                        message: format!(
                            "task {task} retry numbered {attempt}; expected {expected} (retries are sequential from 1)"
                        ),
                    });
                }
                task_retry_next.insert(*task, *attempt + 1);
                if task_faults.get(task).copied().unwrap_or(0) < *attempt {
                    v.push(Violation {
                        rule: "fault-recovery",
                        seq: Some(e.seq),
                        message: format!("task {task} retried without a preceding fault"),
                    });
                }
                if let Some(p) = &plan {
                    if *attempt >= 1 && *attempt <= u64::from(u32::MAX) {
                        let declared = p.backoff_ns(*task, *attempt as u32);
                        if *backoff_ns != declared {
                            v.push(Violation {
                                rule: "fault-recovery",
                                seq: Some(e.seq),
                                message: format!(
                                    "task {task} retry {attempt} backed off {backoff_ns} ns; the declared policy computes {declared} ns"
                                ),
                            });
                        }
                    }
                    if *attempt > u64::from(p.policy.max_retries) {
                        v.push(Violation {
                            rule: "fault-recovery",
                            seq: Some(e.seq),
                            message: format!(
                                "task {task} retry {attempt} exceeds the declared max_retries {}",
                                p.policy.max_retries
                            ),
                        });
                    }
                }
            }
            EventKind::SpeQuarantined { spe, faults } => {
                if !armed {
                    v.push(Violation {
                        rule: "quarantine",
                        seq: Some(e.seq),
                        message: format!(
                            "SPE {spe} quarantined but the log declares no fault policy"
                        ),
                    });
                }
                if *spe >= n_spes {
                    v.push(bad_spe("quarantine", e.seq, *spe, n_spes));
                } else if in_quarantine[*spe] {
                    v.push(Violation {
                        rule: "quarantine",
                        seq: Some(e.seq),
                        message: format!(
                            "SPE {spe} quarantined twice (intervals must be exclusive)"
                        ),
                    });
                } else {
                    in_quarantine[*spe] = true;
                }
                if let Some(p) = &plan {
                    if *faults < u64::from(p.policy.quarantine_k) {
                        v.push(Violation {
                            rule: "quarantine",
                            seq: Some(e.seq),
                            message: format!(
                                "SPE {spe} quarantined after {faults} consecutive fault(s); the policy requires k={}",
                                p.policy.quarantine_k
                            ),
                        });
                    }
                }
            }
            EventKind::SpeReadmitted { spe } => {
                if *spe >= n_spes {
                    v.push(bad_spe("quarantine", e.seq, *spe, n_spes));
                } else if !in_quarantine[*spe] {
                    v.push(Violation {
                        rule: "quarantine",
                        seq: Some(e.seq),
                        message: format!("SPE {spe} re-admitted while not quarantined"),
                    });
                } else {
                    in_quarantine[*spe] = false;
                }
            }
            EventKind::PpeFallback { proc, task, attempts } => {
                if !armed {
                    v.push(Violation {
                        rule: "fault-recovery",
                        seq: Some(e.seq),
                        message: format!(
                            "task {task} fell back to the PPE but the log declares no fault policy"
                        ),
                    });
                }
                match offloaded.get(task) {
                    None => v.push(Violation {
                        rule: "fault-recovery",
                        seq: Some(e.seq),
                        message: format!(
                            "PPE fallback for task {task} which was never off-loaded"
                        ),
                    }),
                    Some((owner, _)) if *owner != *proc => v.push(Violation {
                        rule: "fault-recovery",
                        seq: Some(e.seq),
                        message: format!(
                            "task {task} off-loaded by proc {owner} but fell back for proc {proc}"
                        ),
                    }),
                    Some(_) => {}
                }
                if tasks.get(task).is_some_and(|t| t.ended) {
                    v.push(Violation {
                        rule: "fault-recovery",
                        seq: Some(e.seq),
                        message: format!(
                            "task {task} fell back to the PPE after completing on SPEs (duplicated)"
                        ),
                    });
                }
                if let Some(prev) = task_fallback.insert(*task, e.seq) {
                    v.push(Violation {
                        rule: "fault-recovery",
                        seq: Some(e.seq),
                        message: format!(
                            "task {task} fell back twice (first at event {prev})"
                        ),
                    });
                }
                if let Some(p) = &plan {
                    if *attempts > u64::from(p.policy.max_retries) + 1 {
                        v.push(Violation {
                            rule: "fault-recovery",
                            seq: Some(e.seq),
                            message: format!(
                                "task {task} fell back after {attempts} attempts; the policy allows at most {}",
                                p.policy.max_retries + 1
                            ),
                        });
                    }
                }
            }
            EventKind::JobSubmitted { job, tenant, deadline_ns, queue_depth, queue_cap, .. } => {
                if rejected_jobs.contains_key(job) {
                    v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!(
                            "job {job} admitted after being rejected (ids are unique per run)"
                        ),
                    });
                }
                let state = JobState {
                    tenant: *tenant,
                    submit_seq: e.seq,
                    submitted_ns: e.at_ns,
                    deadline_ns: *deadline_ns,
                    started: false,
                    in_flight: false,
                    attempt: 0,
                    terminal: None,
                };
                if jobs.insert(*job, state).is_some() {
                    v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!("job {job} admitted twice"),
                    });
                } else {
                    queue.push(*tenant, *job);
                }
                if *queue_depth != queue.len() {
                    v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!(
                            "job {job} admission records queue depth {queue_depth}; the admissions and starts sum to {}",
                            queue.len()
                        ),
                    });
                }
                if *queue_depth > *queue_cap {
                    v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!(
                            "job {job} admitted at queue depth {queue_depth}, over the declared bound {queue_cap}"
                        ),
                    });
                }
                check_job_queue_cap(e.seq, *queue_cap, &mut job_queue_cap, v);
            }
            EventKind::JobStarted { job, tenant, attempt } => {
                match jobs.get_mut(job) {
                    None => v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!("job {job} started without an admission record"),
                    }),
                    Some(state) => {
                        if state.in_flight {
                            v.push(Violation {
                                rule: "job-lifecycle",
                                seq: Some(e.seq),
                                message: format!("job {job} started twice"),
                            });
                        } else if let Some(term) = state.terminal {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!("job {job} started after its terminal ({term})"),
                            });
                        } else {
                            state.started = true;
                            state.in_flight = true;
                        }
                        if *attempt != state.attempt {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} started as attempt {attempt}; the retry stream says attempt {} (attempt numbers are dense per job)",
                                    state.attempt
                                ),
                            });
                        }
                        if state.tenant != *tenant {
                            v.push(Violation {
                                rule: "job-lifecycle",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} admitted by tenant {} but started for tenant {tenant}",
                                    state.tenant
                                ),
                            });
                        }
                    }
                }
                // An empty line means never admitted: flagged above.
                if let Some(&front) = queue.front(*tenant).filter(|&front| front != job) {
                    v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!(
                            "job {job} started before job {front} of the same tenant (admission is FIFO within a tenant)"
                        ),
                    });
                }
                let selected = queue.head().map(|t| (t, queue.front(t).copied()));
                if selected == Some((*tenant, Some(*job))) {
                    queue.pop();
                } else {
                    if weighted {
                        let message = match selected {
                            None => format!(
                                "job {job} of tenant {tenant} dispatched with no queued work in the replay"
                            ),
                            Some((t, expected)) => format!(
                                "job {job} of tenant {tenant} dispatched, but deficit round-robin over the declared weights selects job {} of tenant {t}",
                                expected.map_or_else(|| "<none>".to_string(), |j| j.to_string()),
                            ),
                        };
                        fairness.push(Violation { rule: "tenant-fairness", seq: Some(e.seq), message });
                    }
                    // Resync: drop the job that actually ran, so one bad
                    // dispatch does not cascade into a violation per event.
                    queue.remove(*tenant, job);
                }
            }
            EventKind::JobCompleted {
                job,
                tenant,
                t_queue_ns,
                t_dispatch_ns,
                t_kernel_ns,
                t_reduce_ns,
            } => match jobs.get_mut(job) {
                None => v.push(Violation {
                    rule: "job-lifecycle",
                    seq: Some(e.seq),
                    message: format!("job {job} completed without an admission record"),
                }),
                Some(state) => {
                    if !state.started {
                        v.push(Violation {
                            rule: "job-lifecycle",
                            seq: Some(e.seq),
                            message: format!("job {job} completed without starting"),
                        });
                    }
                    if let Some(term) = state.terminal {
                        v.push(Violation {
                            rule: "job-retry",
                            seq: Some(e.seq),
                            message: format!(
                                "job {job} completed after already reaching a terminal ({term}); exactly-once completion is broken"
                            ),
                        });
                    }
                    state.terminal = Some("completed");
                    state.in_flight = false;
                    if state.tenant != *tenant {
                        v.push(Violation {
                            rule: "job-lifecycle",
                            seq: Some(e.seq),
                            message: format!(
                                "job {job} admitted by tenant {} but completed for tenant {tenant}",
                                state.tenant
                            ),
                        });
                    }
                    let span = e.at_ns.saturating_sub(state.submitted_ns);
                    let sum = t_queue_ns + t_dispatch_ns + t_kernel_ns + t_reduce_ns;
                    if sum != span {
                        v.push(Violation {
                            rule: "job-lifecycle",
                            seq: Some(e.seq),
                            message: format!(
                                "job {job} terms sum to {sum} ns but its admission-to-completion span is {span} ns (the partition must be exact)"
                            ),
                        });
                    }
                }
            },
            EventKind::JobRejected { job, tenant, queue_depth, queue_cap } => {
                if jobs.contains_key(job) {
                    v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!(
                            "job {job} of tenant {tenant} rejected after being admitted"
                        ),
                    });
                }
                if rejected_jobs.insert(*job, e.seq).is_some() {
                    v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!("job {job} rejected twice"),
                    });
                }
                if *queue_depth != queue.len() {
                    v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!(
                            "job {job} rejection records queue depth {queue_depth}; the admissions and starts sum to {}",
                            queue.len()
                        ),
                    });
                }
                // Armed runs may legally reject above the bound: retries
                // re-enter the queue past the admission gate.
                if !armed && *queue_depth > *queue_cap {
                    v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!(
                            "job {job} rejection records queue depth {queue_depth}, over the declared bound {queue_cap}"
                        ),
                    });
                }
                check_job_queue_cap(e.seq, *queue_cap, &mut job_queue_cap, v);
            }
            EventKind::JobShed { job, tenant, deadline_ns } => {
                match jobs.get_mut(job) {
                    None => v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!("job {job} shed without an admission record"),
                    }),
                    Some(state) => {
                        if state.in_flight {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} shed while in flight (sheds happen in the queue)"
                                ),
                            });
                        }
                        if let Some(term) = state.terminal {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} shed after already reaching a terminal ({term}); exactly-once completion is broken"
                                ),
                            });
                        }
                        state.terminal = Some("shed");
                        if state.tenant != *tenant {
                            v.push(Violation {
                                rule: "job-lifecycle",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} admitted by tenant {} but shed for tenant {tenant}",
                                    state.tenant
                                ),
                            });
                        }
                        if *deadline_ns == 0 || state.deadline_ns != *deadline_ns {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} shed against deadline {deadline_ns} ns but its admission declared {} ns",
                                    state.deadline_ns
                                ),
                            });
                        } else if e.at_ns.saturating_sub(state.submitted_ns) < *deadline_ns {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} shed {} ns after admission, before its {deadline_ns} ns deadline expired",
                                    e.at_ns.saturating_sub(state.submitted_ns)
                                ),
                            });
                        }
                    }
                }
                // Deadline sheds happen at the front of a line.
                if queue.front(*tenant) == Some(job) {
                    queue.shed_front(*tenant);
                } else {
                    if weighted {
                        fairness.push(Violation {
                            rule: "tenant-fairness",
                            seq: Some(e.seq),
                            message: format!(
                                "job {job} of tenant {tenant} shed out of queue order (deadline sheds happen at the head)"
                            ),
                        });
                    }
                    queue.remove(*tenant, job);
                }
            }
            EventKind::JobRetried { job, tenant, attempt, backoff_ns } => {
                if !armed {
                    v.push(Violation {
                        rule: "job-retry",
                        seq: Some(e.seq),
                        message: format!(
                            "job {job} retried but the log declares no fault policy"
                        ),
                    });
                }
                match jobs.get_mut(job) {
                    None => v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!("job {job} retried without an admission record"),
                    }),
                    Some(state) => {
                        if let Some(term) = state.terminal {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} retried after its terminal ({term})"
                                ),
                            });
                        } else if !state.in_flight {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} retried while not in flight (only a failed execution retries)"
                                ),
                            });
                        }
                        if *attempt != state.attempt + 1 {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} retried as attempt {attempt} after attempt {} (attempts increment by one)",
                                    state.attempt
                                ),
                            });
                        }
                        state.attempt = *attempt;
                        state.in_flight = false;
                        if let Some(p) = &plan {
                            if *attempt > u64::from(p.policy.job_retries) {
                                v.push(Violation {
                                    rule: "job-retry",
                                    seq: Some(e.seq),
                                    message: format!(
                                        "job {job} retried as attempt {attempt}; the policy budgets {} retries",
                                        p.policy.job_retries
                                    ),
                                });
                            }
                            let expected = p.backoff_ns(*job, *attempt as u32);
                            if *backoff_ns != expected {
                                v.push(Violation {
                                    rule: "job-retry",
                                    seq: Some(e.seq),
                                    message: format!(
                                        "job {job} retry declares backoff {backoff_ns} ns; the declared plan computes {expected} ns"
                                    ),
                                });
                            }
                        }
                    }
                }
                queue.push(*tenant, *job);
                absorbed += 1;
            }
            EventKind::JobPoisoned { job, tenant, attempts } => {
                absorbed += 1;
                if !armed {
                    v.push(Violation {
                        rule: "job-retry",
                        seq: Some(e.seq),
                        message: format!(
                            "job {job} poisoned but the log declares no fault policy"
                        ),
                    });
                }
                match jobs.get_mut(job) {
                    None => v.push(Violation {
                        rule: "job-lifecycle",
                        seq: Some(e.seq),
                        message: format!("job {job} poisoned without an admission record"),
                    }),
                    Some(state) => {
                        if let Some(term) = state.terminal {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} poisoned after already reaching a terminal ({term}); exactly-once completion is broken"
                                ),
                            });
                        } else if !state.in_flight {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} poisoned while not in flight (quarantine follows a failed execution)"
                                ),
                            });
                        }
                        state.terminal = Some("poisoned");
                        state.in_flight = false;
                        if *attempts != state.attempt + 1 {
                            v.push(Violation {
                                rule: "job-retry",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} poisoned after a recorded {attempts} attempts but {} were observed",
                                    state.attempt + 1
                                ),
                            });
                        }
                        if let Some(p) = &plan {
                            if *attempts != u64::from(p.policy.job_retries) + 1 {
                                v.push(Violation {
                                    rule: "job-retry",
                                    seq: Some(e.seq),
                                    message: format!(
                                        "job {job} poisoned after {attempts} attempts; the policy quarantines after exactly {}",
                                        u64::from(p.policy.job_retries) + 1
                                    ),
                                });
                            }
                        }
                        if state.tenant != *tenant {
                            v.push(Violation {
                                rule: "job-lifecycle",
                                seq: Some(e.seq),
                                message: format!(
                                    "job {job} admitted by tenant {} but poisoned for tenant {tenant}",
                                    state.tenant
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    // job-lifecycle whole-log balance: every admitted job reached a
    // terminal (completed, shed, or poisoned). An interrupted serve
    // drains its queue before exiting, so an admitted-but-unterminated
    // job means the drain was cut short.
    for (job, state) in &jobs {
        if state.terminal.is_none() {
            let what = if state.started { "started" } else { "admitted" };
            report.violations.push(Violation {
                rule: "job-lifecycle",
                seq: Some(state.submit_seq),
                message: format!(
                    "job {job} {what} but never completed, was shed, or was poisoned"
                ),
            });
        }
    }

    // tenant-fairness findings follow the job balance in the report.
    report.violations.extend(fairness);

    // Whole-log properties: every started task ended, and its chunks tile
    // the iteration space exactly once across its team.
    report.spe_busy_ns = spe_busy_ns;
    report.tasks_checked = tasks.len();
    for (task, info) in &tasks {
        if !info.ended {
            report.violations.push(Violation {
                rule: "task-lifecycle",
                seq: Some(info.start_seq),
                message: format!("task {task} started but never ended"),
            });
        }
        check_chunk_coverage(mode, *task, info, log.loop_iters, &mut report.violations);
    }
    // fault-recovery: every faulted off-load must resolve exactly once —
    // either its retry eventually ran on SPEs (TaskStart/TaskEnd) or it
    // degraded to the PPE (PpeFallback), never both and never neither.
    // Exception: each job-plane `JobRetried`/`JobPoisoned` record absorbs
    // exactly one unresolved task — the kernel off-load whose unrecovered
    // death it answered. Only losses beyond that budget are violations.
    for task in task_faults.keys() {
        let ended = tasks.get(task).is_some_and(|t| t.ended);
        let fell_back = task_fallback.contains_key(task);
        if ended && fell_back {
            report.violations.push(Violation {
                rule: "fault-recovery",
                seq: None,
                message: format!(
                    "task {task} both completed on SPEs and fell back to the PPE (duplicated)"
                ),
            });
        }
        if !ended && !fell_back {
            if absorbed > 0 {
                absorbed -= 1;
                continue;
            }
            report.violations.push(Violation {
                rule: "fault-recovery",
                seq: None,
                message: format!(
                    "task {task} faulted but never completed anywhere (lost)"
                ),
            });
        }
    }
    if armed {
        // With a fault plan armed the run may still end with work stuck in
        // the queue (retries exhausted, fallback disabled). Surface every
        // off-loaded task that resolved nowhere; unarmed logs are already
        // covered by task-lifecycle above.
        let pending = offloaded.keys().filter(|t| {
            !tasks.contains_key(*t)
                && !task_fallback.contains_key(*t)
                && !task_faults.contains_key(*t)
        });
        for task in pending {
            report.violations.push(Violation {
                rule: "fault-recovery",
                seq: None,
                message: format!("task {task} was off-loaded but never started, faulted, or fell back (lost)"),
            });
        }
    }
    if mode == CheckMode::Simulated {
        for (spe, occupant) in busy.iter().enumerate() {
            if let Some(task) = occupant {
                report.violations.push(Violation {
                    rule: "spe-overlap",
                    seq: None,
                    message: format!("SPE {spe} still occupied by task {task} at end of log"),
                });
            }
        }
    }
    report
}

/// Sanity-check a drained native trace *before* the merge: within each
/// ring, timestamps must be monotone (one writer, one clock), and ring
/// overflow must be surfaced — a trace that silently dropped events would
/// make every downstream fold quietly wrong, so drops are a violation
/// (`trace-drops`), not a footnote.
pub fn check_trace_sanity(trace: &TraceLog) -> CheckReport {
    let mut report = CheckReport {
        events_checked: trace.total_events(),
        dropped_events: trace.dropped_events(),
        ..CheckReport::default()
    };
    for (ring, t) in trace.threads.iter().enumerate() {
        for (i, w) in t.events.windows(2).enumerate() {
            if w[1].at_ns < w[0].at_ns {
                report.violations.push(Violation {
                    rule: "causal-time",
                    seq: Some((i + 1) as u64),
                    message: format!(
                        "ring {ring}: event at {} ns precedes predecessor at {} ns",
                        w[1].at_ns, w[0].at_ns
                    ),
                });
            }
        }
        if t.dropped > 0 {
            report.violations.push(Violation {
                rule: "trace-drops",
                seq: None,
                message: format!(
                    "ring {ring} overflowed: {} event(s) dropped (grow the tracer capacity)",
                    t.dropped
                ),
            });
        }
    }
    report
}

fn initial_degree(tag: SchedulerTag) -> usize {
    match tag {
        SchedulerTag::StaticHybrid(k) => k,
        _ => 1,
    }
}

/// The admission-queue bound is part of the serve configuration, so every
/// job event in one log must declare the same value.
fn check_job_queue_cap(
    seq: u64,
    declared: usize,
    seen: &mut Option<usize>,
    v: &mut Vec<Violation>,
) {
    match seen {
        None => *seen = Some(declared),
        Some(cap) if *cap != declared => v.push(Violation {
            rule: "job-lifecycle",
            seq: Some(seq),
            message: format!(
                "queue bound changed mid-log: {declared} declared after {cap}"
            ),
        }),
        Some(_) => {}
    }
}

fn bad_spe(rule: &'static str, seq: u64, spe: usize, n_spes: usize) -> Violation {
    Violation {
        rule,
        seq: Some(seq),
        message: format!("SPE index {spe} out of range (machine has {n_spes})"),
    }
}

#[allow(clippy::too_many_arguments)] // replay state is genuinely this wide
fn check_ctx_switch(
    log: &RunLog,
    mode: CheckMode,
    seq: u64,
    at_ns: u64,
    proc: usize,
    reason: SwitchReason,
    held_ns: u64,
    last_offload_at: &HashMap<usize, u64>,
    v: &mut Vec<Violation>,
) {
    let linux = log.scheduler == SchedulerTag::Linux;
    match (linux, reason) {
        (true, SwitchReason::Offload) => v.push(Violation {
            rule: "ctx-switch",
            seq: Some(seq),
            message: format!(
                "Linux-like run switched proc {proc} at an off-load point (must rotate only on quantum expiry)"
            ),
        }),
        (true, SwitchReason::Quantum) => {
            if held_ns < log.quantum_ns {
                v.push(Violation {
                    rule: "ctx-switch",
                    seq: Some(seq),
                    message: format!(
                        "proc {proc} rotated after {held_ns} ns, before its {} ns quantum expired",
                        log.quantum_ns
                    ),
                });
            }
        }
        (false, SwitchReason::Quantum) => v.push(Violation {
            rule: "ctx-switch",
            seq: Some(seq),
            message: format!(
                "EDTLP-family run preempted proc {proc} on a quantum (switches must be voluntary, at off-load points)"
            ),
        }),
        (false, SwitchReason::Offload) => {
            // Simulated switches share the off-load's nanosecond; the
            // native gate records the switch after re-acquiring the
            // context, so the rule there is that the process has off-
            // loaded at all (voluntary switches happen only at off-load
            // points, but later on the clock).
            let legal = match mode {
                CheckMode::Simulated => last_offload_at.get(&proc) == Some(&at_ns),
                CheckMode::Native => last_offload_at.contains_key(&proc),
            };
            if !legal {
                v.push(Violation {
                    rule: "ctx-switch",
                    seq: Some(seq),
                    message: format!(
                        "proc {proc} switched at {at_ns} ns without an off-load at that instant"
                    ),
                });
            }
        }
    }
}

#[allow(clippy::too_many_arguments)] // replay state is genuinely this wide
fn check_task_start(
    log: &RunLog,
    mode: CheckMode,
    armed: bool,
    seq: u64,
    proc: usize,
    task: u64,
    degree: usize,
    team: &[usize],
    expected_degree: usize,
    offloaded: &BTreeMap<u64, (usize, u64)>,
    last_started: &Option<u64>,
    busy: &mut [Option<u64>],
    v: &mut Vec<Violation>,
) {
    // fifo-order: the request queue is FIFO and task ids are assigned in
    // off-load order, so grants must start strictly ascending task ids.
    // Native ids are per-process and host threads race to dispatch, so
    // the rule only holds under simulation — and retried/faulted grants
    // re-enter the queue out of id order, so an armed plan waives it too.
    if mode == CheckMode::Simulated && !armed {
        if let Some(prev) = last_started {
            if task <= *prev {
                v.push(Violation {
                    rule: "fifo-order",
                    seq: Some(seq),
                    message: format!(
                        "task {task} started after task {prev} (grants must follow off-load order)"
                    ),
                });
            }
        }
    }
    match offloaded.get(&task) {
        None => v.push(Violation {
            rule: "task-lifecycle",
            seq: Some(seq),
            message: format!("task {task} started without an off-load request"),
        }),
        Some((owner, _)) if *owner != proc => v.push(Violation {
            rule: "task-lifecycle",
            seq: Some(seq),
            message: format!("task {task} off-loaded by proc {owner} but started for proc {proc}"),
        }),
        Some(_) => {}
    }
    // Natively the degree in force is sampled per off-load, not pinned
    // between DegreeDecision events, so only the simulator pins it. An
    // armed fault plan clamps grants to the healthy-SPE count below the
    // decided degree, so quarantine waives the pin as well.
    if mode == CheckMode::Simulated && !armed && degree != expected_degree {
        v.push(Violation {
            rule: "mgps-degree",
            seq: Some(seq),
            message: format!(
                "task {task} granted degree {degree}; the scheduler's degree in force is {expected_degree}"
            ),
        });
    }
    if team.len() != degree {
        v.push(Violation {
            rule: "mgps-degree",
            seq: Some(seq),
            message: format!("task {task} has degree {degree} but a team of {}", team.len()),
        });
    }
    for &spe in team {
        if spe >= log.n_spes {
            v.push(bad_spe("spe-overlap", seq, spe, log.n_spes));
            continue;
        }
        if mode == CheckMode::Simulated {
            if let Some(occupant) = busy[spe] {
                v.push(Violation {
                    rule: "spe-overlap",
                    seq: Some(seq),
                    message: format!(
                        "task {task} starts on SPE {spe} while task {occupant} still runs there"
                    ),
                });
            }
            busy[spe] = Some(task);
        }
    }
}

#[allow(clippy::too_many_arguments)] // one slot per checker table, mirroring check_task_start
fn check_task_end(
    mode: CheckMode,
    seq: u64,
    proc: usize,
    task: u64,
    team: &[usize],
    tasks: &mut BTreeMap<u64, TaskInfo>,
    busy: &mut [Option<u64>],
    v: &mut Vec<Violation>,
) {
    match tasks.get_mut(&task) {
        None => v.push(Violation {
            rule: "task-lifecycle",
            seq: Some(seq),
            message: format!("task {task} ended without starting"),
        }),
        Some(info) => {
            if info.ended {
                v.push(Violation {
                    rule: "task-lifecycle",
                    seq: Some(seq),
                    message: format!("task {task} ended twice"),
                });
            }
            info.ended = true;
            if info.proc != proc {
                v.push(Violation {
                    rule: "task-lifecycle",
                    seq: Some(seq),
                    message: format!("task {task} started for proc {} but ended for proc {proc}", info.proc),
                });
            }
            if info.team != team {
                v.push(Violation {
                    rule: "task-lifecycle",
                    seq: Some(seq),
                    message: format!(
                        "task {task} started on team {:?} but ended on team {team:?}",
                        info.team
                    ),
                });
            }
        }
    }
    if mode == CheckMode::Native {
        return; // occupancy is not policed natively (see module docs)
    }
    for &spe in team {
        let Some(slot) = busy.get_mut(spe) else { continue };
        match slot {
            Some(t) if *t == task => *slot = None,
            Some(t) => v.push(Violation {
                rule: "spe-overlap",
                seq: Some(seq),
                message: format!("task {task} ends on SPE {spe} which is running task {t}"),
            }),
            None => v.push(Violation {
                rule: "spe-overlap",
                seq: Some(seq),
                message: format!("task {task} ends on SPE {spe} which is idle"),
            }),
        }
    }
}

fn check_dma(
    seq: u64,
    spe: usize,
    element_bytes: &[usize],
    local_addr: usize,
    main_addr: usize,
    n_spes: usize,
    v: &mut Vec<Violation>,
) {
    if spe >= n_spes {
        v.push(bad_spe("dma-legality", seq, spe, n_spes));
    }
    if element_bytes.is_empty() {
        v.push(Violation {
            rule: "dma-legality",
            seq: Some(seq),
            message: "empty DMA list".to_string(),
        });
    }
    if element_bytes.len() > DMA_MAX_LIST_LEN {
        v.push(Violation {
            rule: "dma-legality",
            seq: Some(seq),
            message: format!(
                "DMA list of {} elements exceeds the {DMA_MAX_LIST_LEN}-element cap",
                element_bytes.len()
            ),
        });
    }
    for (i, &bytes) in element_bytes.iter().enumerate() {
        if bytes > DMA_MAX_TRANSFER_BYTES {
            v.push(Violation {
                rule: "dma-legality",
                seq: Some(seq),
                message: format!(
                    "DMA element {i} moves {bytes} bytes, over the {DMA_MAX_TRANSFER_BYTES}-byte cap"
                ),
            });
        } else if !(matches!(bytes, 1 | 2 | 4 | 8) || (bytes > 0 && bytes % 16 == 0)) {
            v.push(Violation {
                rule: "dma-legality",
                seq: Some(seq),
                message: format!("DMA element {i} of {bytes} bytes is not 1, 2, 4, 8, or a 16-byte multiple"),
            });
        }
    }
    for (name, addr) in [("local", local_addr), ("main", main_addr)] {
        if addr % DMA_ALIGNMENT != 0 {
            v.push(Violation {
                rule: "dma-legality",
                seq: Some(seq),
                message: format!("{name} address {addr:#x} violates 128-bit alignment"),
            });
        }
    }
}

fn check_mailbox(
    seq: u64,
    spe: usize,
    mailbox: MailboxKind,
    recorded: usize,
    is_write: bool,
    occ: &mut [[usize; 3]],
    v: &mut Vec<Violation>,
) {
    let Some(slots) = occ.get_mut(spe) else {
        v.push(bad_spe("mailbox", seq, spe, occ.len()));
        return;
    };
    let idx = match mailbox {
        MailboxKind::Inbound => 0,
        MailboxKind::Outbound => 1,
        MailboxKind::OutboundInterrupt => 2,
    };
    if is_write {
        slots[idx] += 1;
        if slots[idx] > mailbox.capacity() {
            v.push(Violation {
                rule: "mailbox",
                seq: Some(seq),
                message: format!(
                    "SPE {spe} {mailbox:?} mailbox holds {} messages, over its capacity of {}",
                    slots[idx],
                    mailbox.capacity()
                ),
            });
        }
    } else if slots[idx] == 0 {
        v.push(Violation {
            rule: "mailbox",
            seq: Some(seq),
            message: format!("read from empty SPE {spe} {mailbox:?} mailbox"),
        });
    } else {
        slots[idx] -= 1;
    }
    if slots[idx] != recorded {
        v.push(Violation {
            rule: "mailbox",
            seq: Some(seq),
            message: format!(
                "SPE {spe} {mailbox:?} mailbox records occupancy {recorded}; the operations sum to {}",
                slots[idx]
            ),
        });
    }
}

#[allow(clippy::too_many_arguments)] // replay state is genuinely this wide
fn check_degree_decision(
    log: &RunLog,
    seq: u64,
    degree: usize,
    waiting: usize,
    dn: usize,
    window: usize,
    window_fill: usize,
    v: &mut Vec<Violation>,
) {
    if log.scheduler != SchedulerTag::Mgps {
        v.push(Violation {
            rule: "mgps-degree",
            seq: Some(seq),
            message: format!("degree decision under {:?}, which never adapts LLP", log.scheduler),
        });
        return;
    }
    if dn != log.n_spes {
        v.push(Violation {
            rule: "mgps-degree",
            seq: Some(seq),
            message: format!("decision sized for {dn} SPEs on a {}-SPE machine", log.n_spes),
        });
    }
    let expected_window = log.mgps_window.unwrap_or(log.n_spes);
    if window != expected_window {
        v.push(Violation {
            rule: "mgps-degree",
            seq: Some(seq),
            message: format!(
                "utilization window of {window} off-loads; the policy requires exactly {expected_window}"
            ),
        });
    }
    if window_fill > window {
        v.push(Violation {
            rule: "mgps-degree",
            seq: Some(seq),
            message: format!("window sample holds {window_fill} off-loads, over the {window}-slot window"),
        });
    }
    let cap = (log.n_spes / waiting.max(1)).max(1);
    if degree < 1 || degree > cap {
        v.push(Violation {
            rule: "mgps-degree",
            seq: Some(seq),
            message: format!(
                "degree {degree} outside 1..=floor({}/{}) = {cap} with {waiting} waiting tasks",
                log.n_spes,
                waiting.max(1)
            ),
        });
    }
}

fn check_chunk_coverage(
    mode: CheckMode,
    task: u64,
    info: &TaskInfo,
    loop_iters: usize,
    v: &mut Vec<Violation>,
) {
    // The iteration space to tile. Simulated runs share one loop shape;
    // native tasks carry their own count on every chunk, and the chunks
    // must agree on it. A native task with no chunks recorded no loop
    // (nothing to verify).
    let loop_iters = match mode {
        CheckMode::Simulated => loop_iters,
        CheckMode::Native => {
            let Some(&(_, _, _, iters)) = info.chunks.first() else { return };
            if let Some(&(_, _, w, other)) =
                info.chunks.iter().find(|&&(_, _, _, i)| i != iters)
            {
                v.push(Violation {
                    rule: "chunk-coverage",
                    seq: Some(info.start_seq),
                    message: format!(
                        "task {task} chunks disagree on the loop size: {iters} vs {other} (worker {w})"
                    ),
                });
                return;
            }
            iters
        }
    };
    // Exactly one chunk per team member — except natively, where a team
    // member whose range partitioned to empty legitimately sends nothing.
    if mode == CheckMode::Simulated && info.chunks.len() != info.degree {
        v.push(Violation {
            rule: "chunk-coverage",
            seq: Some(info.start_seq),
            message: format!(
                "task {task} with degree {} dispatched {} chunks",
                info.degree,
                info.chunks.len()
            ),
        });
        return;
    }
    let mut workers: Vec<usize> = info.chunks.iter().map(|&(_, _, w, _)| w).collect();
    workers.sort_unstable();
    let mut team = info.team.clone();
    team.sort_unstable();
    let covered = match mode {
        CheckMode::Simulated => workers != team,
        // Chunk workers must still be a subset of the team (duplicates
        // collide in the tiling check below).
        CheckMode::Native => !workers.iter().all(|w| team.contains(w)),
    };
    if covered {
        v.push(Violation {
            rule: "chunk-coverage",
            seq: Some(info.start_seq),
            message: format!(
                "task {task} chunks run on SPEs {workers:?} but the team is {team:?}"
            ),
        });
    }
    // Chunks tile 0..loop_iters exactly once.
    let mut spans: Vec<(usize, usize)> =
        info.chunks.iter().map(|&(s, l, _, _)| (s, l)).collect();
    spans.sort_unstable();
    let mut next = 0usize;
    for &(start, len) in &spans {
        if start != next {
            v.push(Violation {
                rule: "chunk-coverage",
                seq: Some(info.start_seq),
                message: format!(
                    "task {task} chunk starts at iteration {start}; expected {next} (gap or overlap)"
                ),
            });
            return;
        }
        next = start + len;
    }
    if next != loop_iters {
        v.push(Violation {
            rule: "chunk-coverage",
            seq: Some(info.start_seq),
            message: format!("task {task} chunks cover {next} of {loop_iters} iterations"),
        });
    }
}
