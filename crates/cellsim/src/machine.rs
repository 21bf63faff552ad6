//! The Cell machine model: worker processes, PPE contexts, SPEs, and the
//! scheduling policies, assembled into a discrete-event simulation.
//!
//! One simulation run executes `n_bootstraps` independent bootstraps
//! (one per worker process, as in the paper's experiments: "constant
//! problem size (one bootstrap) per MPI process") under one of the four
//! scheduling schemes, and reports the makespan plus utilization and
//! overhead statistics.
//!
//! The event graph per process cycles through:
//!
//! ```text
//! PPE work gap ──► off-load request ──► [wait for SPE(s)] ──► task runs on
//!   ▲                                                        SPE team
//!   └─────────── re-acquire PPE context ◄── task complete ◄──┘
//! ```
//!
//! with the scheduler deciding who holds the two PPE contexts at each step
//! (voluntary switch on off-load under EDTLP; 10 ms quantum rotation under
//! the Linux baseline) and how many SPEs each task's loops get (1 under
//! EDTLP; fixed under the static hybrid; adaptive under MGPS).

use std::collections::VecDeque;

use des::prelude::*;
use mgps_runtime::faults::FaultPlan;
use mgps_runtime::policy::{
    partition, Directive, MgpsConfig, MgpsScheduler, PpePolicyKind, PpeScheduler, ProcId,
    SchedulerKind, TaskId,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::dma::DmaList;
use crate::eib::Eib;
use crate::event::{EventKind, EventRecord, MailboxKind, RunLog, SchedulerTag, SwitchReason};
use crate::mailbox::SpuMailboxes;
use crate::params::{
    CellParams, CODE_LOAD_COST, CTX_SWITCH, LINUX_QUANTUM, LOCAL_STORE_BYTES, POLL_PER_PROC,
    PPE_CONTEXTS_PER_CELL, SMT_SLOWDOWN, SWITCH_POLLUTION,
};
use crate::spe::SpeState;
use crate::workload::{GrantCosts, KernelProfile, RaxmlWorkload};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Machine parameters.
    pub params: CellParams,
    /// Workload parameters.
    pub workload: RaxmlWorkload,
    /// Scheduling scheme.
    pub scheduler: SchedulerKind,
    /// Kernel optimization level (§5.1 ablation).
    pub profile: KernelProfile,
    /// Worker processes, one bootstrap each.
    pub n_bootstraps: usize,
    /// RNG seed (runs are bit-deterministic in this).
    pub seed: u64,
    /// Override the MGPS policy parameters (window length, U threshold).
    /// `None` uses the paper's defaults for the machine's SPE count. Only
    /// meaningful with [`SchedulerKind::Mgps`].
    pub mgps_config: Option<MgpsConfig>,
    /// Record the structured [`RunLog`] consumed by `mgps-analysis`
    /// (task/DMA/mailbox/local-store/degree events). Costs memory
    /// proportional to the event count; off by default.
    pub record_events: bool,
    /// Seeded fault-injection plan (inert by default). When armed, grants
    /// can be sabotaged and the recovery machinery (watchdog reclaim,
    /// bounded retry with declared backoff, SPE quarantine with
    /// re-admission probes, PPE fallback) engages; the canonical spec is
    /// recorded in the RunLog header for the checker.
    pub faults: FaultPlan,
    /// Emit a [`EventKind::GranularityVerdict`] per granted task, replaying
    /// the §5.2 off-load inequality against the drawn kernel timings (the
    /// PPE side uses the dual-version slowdown the fallback kernels pay).
    /// Off by default so existing event streams and replay digests are
    /// unchanged; the granularity atlas turns it on.
    pub granularity_verdicts: bool,
}

impl SimConfig {
    /// A single-Cell run of `n_bootstraps` under `scheduler`, with the
    /// workload reduced by `scale` for simulation speed.
    pub fn cell_42sc(scheduler: SchedulerKind, n_bootstraps: usize, scale: usize) -> SimConfig {
        SimConfig {
            params: CellParams::single(),
            workload: RaxmlWorkload::paper_42sc().scaled(scale),
            scheduler,
            profile: KernelProfile::Optimized,
            n_bootstraps,
            seed: 0x5eed,
            mgps_config: None,
            record_events: false,
            faults: FaultPlan::inert(),
            granularity_verdicts: false,
        }
    }
}

/// Slowdown of the scalar PPE fallback copy relative to the vectorized SPE
/// version (the paper's dual-version functions; matches the gap the native
/// runtime's granularity tests observe).
const PPE_FALLBACK_SLOWDOWN: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Computing on the PPE (holds a context).
    PpeWork,
    /// Off-load issued, waiting for SPEs.
    WaitingSpe,
    /// Task running on SPE(s).
    OnSpe,
    /// Has work to continue but waits for a PPE context.
    Ready,
    /// Bootstrap finished.
    Done,
}

#[derive(Debug)]
struct ProcState {
    cell: usize,
    /// When this process finished its bootstrap (None while running).
    finished: Option<SimTime>,
    /// Index into `CellMachine::ppes`: the run queue this process lives on.
    /// EDTLP has one user-level scheduler per Cell (it migrates processes
    /// freely between the two contexts); the Linux baseline has one run
    /// queue per hardware context (the 2.6 O(1) scheduler does not migrate
    /// running processes between SMT siblings).
    ppe: usize,
    remaining: usize,
    phase: Phase,
    /// Task id of the off-load in flight (valid from off-load request
    /// until completion).
    current_task: u64,
    /// Off-load attempt counter for the task in flight: 0 for the original
    /// off-load, incremented per watchdog-driven retry.
    attempt: u32,
    /// The SPE team of the grant in flight, lead first (valid from grant
    /// until completion or watchdog reclaim). One buffer per process,
    /// refilled by every grant, so events name only the process.
    team: Vec<usize>,
    /// Off-load request timestamp of the task in flight.
    task_started_ns: u64,
    /// When this process last acquired a PPE context.
    ctx_acquired_ns: u64,
    /// Next PPE section pays the pollution penalty (fresh context switch).
    polluted: bool,
    /// Completed a task while off-context (Linux): continue on dispatch.
    pending_resume: bool,
    /// Whether the process has been started. The static hybrid admits only
    /// `n_spes / spes_per_loop` processes at a time ("the PPEs can execute
    /// four or two concurrent bootstraps respectively, using EDTLP", §5.4);
    /// the rest start as slots free up.
    admitted: bool,
}

/// The simulation model.
pub struct CellMachine {
    /// Concurrent-process admission cap (static hybrid waves); `usize::MAX`
    /// for the other schedulers.
    admission_limit: usize,
    /// Next process index not yet started.
    next_unstarted: usize,
    cfg: SimConfig,
    spes: Vec<SpeState>,
    ppes: Vec<PpeScheduler>,
    procs: Vec<ProcState>,
    /// Effective (compression-adjusted) Linux quantum, ns.
    quantum_ns: u64,
    /// FIFO of processes waiting for SPEs.
    request_queue: VecDeque<usize>,
    mgps: Option<MgpsScheduler>,
    current_degree: usize,
    image_epoch: u64,
    eib: Eib,
    mailboxes: Vec<SpuMailboxes>,
    /// Structured event log, when enabled.
    events: Vec<EventRecord>,
    /// Local-store bytes reserved per SPE (input/output task buffers).
    ls_in_use: Vec<usize>,
    rng: SmallRng,
    next_task: u64,
    active_procs: usize,
    finish: Option<SimTime>,
    /// Grant prices per degree and the task buffers' DMA base, built once.
    costs: GrantCosts,
    // Counts kept at the transitions that change them, instead of scans.
    /// SPEs neither busy nor quarantined.
    idle: usize,
    /// SPEs not quarantined.
    healthy: usize,
    /// Per Cell: admitted processes that have not finished.
    live: Vec<usize>,
    /// Per Cell: processes in [`Phase::PpeWork`] (which always hold a
    /// context: a process loses its context only by its own off-load,
    /// quantum expiry or exit, none of which happens mid-section).
    ppe_working: Vec<usize>,
    // statistics
    tasks_completed: u64,
    llp_switches: u64,
    dma_fallbacks: u64,
    // fault plane
    /// Per-SPE quarantine flags (true = out of service).
    quarantined: Vec<bool>,
    /// Per-SPE consecutive-fault counters; a clean completion resets the
    /// whole team's counters.
    consec_faults: Vec<u32>,
    /// `tasks_completed` at the moment each SPE was quarantined; the
    /// re-admission probe fires `readmit_period` completions later.
    quarantine_marks: Vec<u64>,
    /// Minimum drawn task duration so far — the watchdog's timing history
    /// (pure sim-time arithmetic, no wall clock).
    min_task_ns: Option<u64>,
    fault_stats: FaultReport,
}

impl CellMachine {
    fn new(cfg: SimConfig) -> CellMachine {
        assert!(cfg.n_bootstraps > 0, "need at least one bootstrap");
        let n_spes = cfg.params.n_spes();
        // Time-compressed workloads must compress the quantum too, or a
        // whole (scaled) bootstrap fits inside one quantum and the Linux
        // baseline loses its wave structure. Makespan is insensitive to
        // the quantum as long as cycle ≪ quantum ≪ bootstrap (a context
        // with k processes takes k·T whether it interleaves or not), so
        // clamp to keep rotation overhead negligible.
        let quantum_ns = ((LINUX_QUANTUM.as_nanos() as f64
            / cfg.workload.scale_factor()) as u64)
            .max(SimDuration::from_millis(1).as_nanos());
        let ppe_kind = match cfg.scheduler {
            SchedulerKind::LinuxLike => PpePolicyKind::LinuxLike { quantum_ns },
            _ => PpePolicyKind::Edtlp,
        };
        let is_linux = matches!(cfg.scheduler, SchedulerKind::LinuxLike);
        let ppes: Vec<PpeScheduler> = if is_linux {
            // One run queue per hardware context (no sibling migration).
            (0..cfg.params.ppe_contexts())
                .map(|_| PpeScheduler::new(ppe_kind, 1, CTX_SWITCH.as_nanos()))
                .collect()
        } else {
            (0..cfg.params.n_cells)
                .map(|_| PpeScheduler::new(ppe_kind, PPE_CONTEXTS_PER_CELL, CTX_SWITCH.as_nanos()))
                .collect()
        };
        let (mgps, degree) = match cfg.scheduler {
            SchedulerKind::Mgps => {
                let mc = cfg.mgps_config.unwrap_or_else(|| MgpsConfig::for_spes(n_spes));
                assert!(mc.n_spes == n_spes, "MGPS config must match the machine's SPE count");
                (Some(MgpsScheduler::new(mc)), 1)
            }
            SchedulerKind::StaticHybrid { spes_per_loop } => {
                assert!(
                    (1..=n_spes).contains(&spes_per_loop),
                    "static hybrid team size must fit the machine"
                );
                (None, spes_per_loop)
            }
            _ => (None, 1),
        };
        let admission_limit = match cfg.scheduler {
            SchedulerKind::StaticHybrid { spes_per_loop } => {
                (n_spes / spes_per_loop).max(1)
            }
            _ => usize::MAX,
        };
        CellMachine {
            admission_limit,
            next_unstarted: 0,
            spes: (0..n_spes).map(|_| SpeState::new(SimTime::ZERO)).collect(),
            ppes,
            procs: (0..cfg.n_bootstraps)
                .map(|i| ProcState {
                    cell: i % cfg.params.n_cells,
                    finished: None,
                    ppe: if is_linux {
                        // Balance processes across all hardware contexts of
                        // their cell, round-robin (the load balancer places
                        // wakeups evenly; they then stick).
                        let cell = i % cfg.params.n_cells;
                        let k = i / cfg.params.n_cells;
                        cell * PPE_CONTEXTS_PER_CELL + k % PPE_CONTEXTS_PER_CELL
                    } else {
                        i % cfg.params.n_cells
                    },
                    remaining: cfg.workload.tasks_per_bootstrap,
                    phase: Phase::Ready,
                    current_task: 0,
                    attempt: 0,
                    team: Vec::with_capacity(n_spes),
                    task_started_ns: 0,
                    ctx_acquired_ns: 0,
                    polluted: false,
                    pending_resume: false,
                    admitted: false,
                })
                .collect(),
            quantum_ns,
            request_queue: VecDeque::new(),
            mgps,
            current_degree: degree,
            image_epoch: 1,
            eib: Eib::default(),
            mailboxes: (0..n_spes).map(|_| SpuMailboxes::default()).collect(),
            events: Vec::new(),
            ls_in_use: vec![0; n_spes],
            rng: SmallRng::seed_from_u64(cfg.seed),
            next_task: 0,
            active_procs: cfg.n_bootstraps,
            finish: None,
            costs: GrantCosts::new(&cfg.workload, cfg.profile, n_spes),
            idle: n_spes,
            healthy: n_spes,
            live: vec![0; cfg.params.n_cells],
            ppe_working: vec![0; cfg.params.n_cells],
            tasks_completed: 0,
            llp_switches: 0,
            dma_fallbacks: 0,
            quarantined: vec![false; n_spes],
            consec_faults: vec![0; n_spes],
            quarantine_marks: vec![0; n_spes],
            min_task_ns: None,
            fault_stats: FaultReport::default(),
            cfg,
        }
    }

    /// Idle SPEs available for a grant (quarantined SPEs are out of
    /// service and never count).
    fn idle_spes(&self) -> usize {
        debug_assert_eq!(
            self.idle,
            self.spes.iter().zip(&self.quarantined).filter(|(s, &q)| !s.is_busy() && !q).count()
        );
        self.idle
    }

    /// SPEs currently in service (not quarantined).
    fn healthy_spes(&self) -> usize {
        debug_assert_eq!(self.healthy, self.quarantined.iter().filter(|&&q| !q).count());
        self.healthy
    }

    /// Admitted, unfinished processes on `cell`.
    fn live_procs(&self, cell: usize) -> usize {
        debug_assert_eq!(
            self.live[cell],
            self.procs
                .iter()
                .filter(|pr| pr.cell == cell && pr.phase != Phase::Done && pr.admitted)
                .count()
        );
        self.live[cell]
    }

    /// Append an event record, when structured logging is enabled.
    fn emit(&mut self, at_ns: u64, kind: EventKind) {
        if !self.cfg.record_events {
            return;
        }
        let seq = self.events.len() as u64;
        self.events.push(EventRecord { seq, at_ns, kind });
    }

    fn scheduler_tag(&self) -> SchedulerTag {
        match self.cfg.scheduler {
            SchedulerKind::Edtlp => SchedulerTag::Edtlp,
            SchedulerKind::LinuxLike => SchedulerTag::Linux,
            SchedulerKind::StaticHybrid { spes_per_loop } => {
                SchedulerTag::StaticHybrid(spes_per_loop)
            }
            SchedulerKind::Mgps => SchedulerTag::Mgps,
        }
    }

    fn is_linux(&self) -> bool {
        self.cfg.scheduler == SchedulerKind::LinuxLike
    }

    /// The loop degree a grant issued now would use. Clamped to the
    /// healthy-SPE count so fixed-degree schedulers (static hybrid) cannot
    /// deadlock waiting for a team quarantine has made impossible.
    fn grant_degree(&self) -> usize {
        let healthy = self.healthy_spes().max(1);
        self.current_degree.clamp(1, self.spes.len()).min(healthy)
    }

    /// Count of processes on `cell`'s PPE (either SMT context) currently in
    /// real PPE work, excluding `me` (for the SMT contention check).
    fn ppe_working_others(&self, cell: usize, me: usize) -> usize {
        // `me` is never mid-section here: it is about to start one.
        let others = self.ppe_working[cell];
        debug_assert_eq!(
            others,
            self.procs
                .iter()
                .enumerate()
                .filter(|&(i, pr)| {
                    i != me
                        && pr.cell == cell
                        && pr.phase == Phase::PpeWork
                        && self.ppes[pr.ppe].is_running(ProcId(i))
                })
                .count()
        );
        others
    }

}

/// Fault-plane outcome counters for one run (all zero when no plan was
/// armed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults injected (sabotaged grant attempts).
    pub injected: u64,
    /// Off-load retries issued after watchdog reclaim.
    pub retries: u64,
    /// Tasks completed by the scalar PPE fallback kernel copy.
    pub ppe_fallbacks: u64,
    /// SPE quarantine entries.
    pub quarantines: u64,
    /// Quarantine re-admissions.
    pub readmissions: u64,
    /// Tasks lost outright (retries exhausted with the fallback disabled).
    pub lost: u64,
}

/// Summary of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulated makespan of the (possibly scaled) workload.
    pub makespan: SimDuration,
    /// Makespan extrapolated to the faithful workload, seconds.
    pub paper_scale_secs: f64,
    /// Per-SPE busy fraction over the run.
    pub spe_utilization: Vec<f64>,
    /// Mean SPE busy fraction.
    pub mean_spe_utilization: f64,
    /// PPE context switches (all PPEs).
    pub context_switches: u64,
    /// Off-loaded tasks completed.
    pub tasks_completed: u64,
    /// Code-image reloads paid by SPEs.
    pub code_reloads: u64,
    /// LLP activation/deactivation transitions (MGPS only).
    pub llp_switches: u64,
    /// MGPS counters `(evaluations, activations, deactivations)`.
    pub mgps_counters: Option<(u64, u64, u64)>,
    /// Loop degree in force when the run ended.
    pub final_degree: usize,
    /// Total bytes moved over the EIB.
    pub eib_bytes: u64,
    /// Peak concurrent EIB requests.
    pub eib_peak_outstanding: usize,
    /// DMA issues that hit the outstanding-request cap.
    pub dma_fallbacks: u64,
    /// PPE↔SPE mailbox messages exchanged (starts + completions).
    pub mailbox_messages: u64,
    /// Structured event log (`None` unless `record_events` was set).
    pub run_log: Option<RunLog>,
    /// Completion time of each worker process (bootstrap), in process
    /// order — exposes the Linux baseline's wave structure directly.
    pub proc_finish: Vec<SimDuration>,
    /// Fault-plane counters (all zero when no plan was armed).
    pub faults: FaultReport,
    /// Whether some bootstrap failed to complete — possible only under a
    /// lethal fault plan (fallback disabled and retries exhausted, or an
    /// all-quarantined machine with no fallback). Unfaulted runs always
    /// finish. Maps to CLI exit code 5.
    pub unrecovered: bool,
}

/// Run one simulation to completion.
pub fn run(cfg: SimConfig) -> RunReport {
    let scale = cfg.workload.scale_factor();
    let machine = CellMachine::new(cfg);
    let mut sim = Sim::new(machine);
    sim.schedule_at(SimTime::ZERO, start);
    sim.run();
    let now = sim.now();
    let mut m = sim.into_model();
    // The log takes the model's buffer instead of a copy; shed its growth
    // slack, or the caller holds up to twice the log for as long as it lives.
    let mut events = std::mem::take(&mut m.events);
    events.shrink_to_fit();
    let makespan_time = match m.finish {
        Some(t) => t,
        None => {
            // Only a lethal fault plan can strand a bootstrap; anything
            // else ending early is a simulator bug.
            assert!(
                m.cfg.faults.armed(),
                "simulation ended without finishing all bootstraps"
            );
            now
        }
    };
    let makespan = makespan_time.since(SimTime::ZERO);
    let utils: Vec<f64> = m.spes.iter().map(|s| s.utilization(makespan_time)).collect();
    let mean = utils.iter().sum::<f64>() / utils.len() as f64;
    RunReport {
        makespan,
        paper_scale_secs: makespan.as_secs_f64() * scale,
        mean_spe_utilization: mean,
        spe_utilization: utils,
        context_switches: m.ppes.iter().map(|p| p.switches()).sum(),
        tasks_completed: m.tasks_completed,
        code_reloads: m.spes.iter().map(|s| s.reloads()).sum(),
        llp_switches: m.llp_switches,
        mgps_counters: m
            .mgps
            .as_ref()
            .map(|s| (s.evaluations(), s.activations(), s.deactivations())),
        final_degree: m.current_degree,
        eib_bytes: m.eib.total_bytes(),
        eib_peak_outstanding: m.eib.peak_outstanding(),
        dma_fallbacks: m.dma_fallbacks,
        mailbox_messages: m
            .mailboxes
            .iter()
            .map(|mb| mb.inbound.writes() + mb.outbound_interrupt.writes())
            .sum(),
        run_log: if m.cfg.record_events {
            Some(RunLog {
                scheduler: m.scheduler_tag(),
                n_spes: m.spes.len(),
                quantum_ns: m.quantum_ns,
                seed: m.cfg.seed,
                local_store_bytes: LOCAL_STORE_BYTES,
                loop_iters: m.cfg.workload.loop_iters,
                mgps_window: m.mgps.as_ref().map(|s| s.config().window),
                fault_policy: if m.cfg.faults.armed() {
                    Some(m.cfg.faults.to_spec())
                } else {
                    None
                },
                tenant_weights: None,
                events,
            })
        } else {
            None
        },
        proc_finish: m
            .procs
            .iter()
            .map(|p| p.finished.unwrap_or(makespan_time).since(SimTime::ZERO))
            .collect(),
        faults: m.fault_stats,
        unrecovered: m.finish.is_none(),
    }
}

type S = Sim<CellMachine>;

fn start(sim: &mut S) {
    let n = sim.model().procs.len().min(sim.model().admission_limit);
    for _ in 0..n {
        admit_next_proc(sim);
    }
}

/// Start the next not-yet-started process, if any.
fn admit_next_proc(sim: &mut S) {
    let p = sim.model().next_unstarted;
    if p >= sim.model().procs.len() {
        return;
    }
    {
        let m = sim.model_mut();
        m.next_unstarted += 1;
        m.procs[p].admitted = true;
        m.live[m.procs[p].cell] += 1;
    }
    let ppe = sim.model().procs[p].ppe;
    let dispatched = sim.model_mut().ppes[ppe].admit(ProcId(p));
    if dispatched.is_some() {
        let now = sim.now().as_nanos();
        sim.model_mut().procs[p].ctx_acquired_ns = now;
        sim.schedule_in_with(SimDuration::ZERO, continue_proc, p);
    }
    // Queued processes are dispatched as contexts free up.
}

/// `p` holds a PPE context and starts its next cycle (or exits).
fn continue_proc(sim: &mut S, p: usize) {
    debug_assert!(sim.model().ppes[sim.model().procs[p].ppe].is_running(ProcId(p)));
    if sim.model().procs[p].remaining == 0 {
        finish_proc(sim, p);
        return;
    }
    // Draw the PPE work gap, inflated by SMT contention, scheduler polling
    // over resident processes, and (once) post-switch cache pollution.
    let cell = sim.model().procs[p].cell;
    let gap = {
        let smt_busy = sim.model().ppe_working_others(cell, p) >= 1;
        let polled = if sim.model().is_linux() {
            // The kernel scheduler does no user-level queue polling.
            0
        } else {
            // The EDTLP scheduler scans the request queues of every other
            // live MPI process on this Cell at each scheduling event. The
            // cost saturates at the SPE count: the scheduler only tracks as
            // many runnable candidates as there are SPEs to feed.
            sim.model()
                .live_procs(cell)
                .saturating_sub(1)
                .min(sim.model().cfg.params.spes_per_cell - 1)
        };
        let m = sim.model_mut();
        let mut gap = m.cfg.workload.draw_ppe_gap(&mut m.rng);
        if smt_busy {
            gap = gap.mul_f64(SMT_SLOWDOWN);
        }
        gap += POLL_PER_PROC * polled as u64;
        if m.procs[p].polluted {
            gap += SWITCH_POLLUTION;
            m.procs[p].polluted = false;
        }
        gap
    };
    let m = sim.model_mut();
    m.procs[p].phase = Phase::PpeWork;
    m.ppe_working[cell] += 1;
    sim.schedule_in_with(gap, gap_done, p);
}

/// `p` finished its PPE section and requests an off-load.
fn gap_done(sim: &mut S, p: usize) {
    let now_ns = sim.now().as_nanos();
    let task = {
        let m = sim.model_mut();
        let t = TaskId(m.next_task);
        m.next_task += 1;
        m.procs[p].current_task = t.0;
        m.procs[p].attempt = 0;
        m.procs[p].task_started_ns = now_ns;
        m.procs[p].phase = Phase::WaitingSpe;
        m.ppe_working[m.procs[p].cell] -= 1;
        if let Some(mgps) = m.mgps.as_mut() {
            mgps.on_offload(t, now_ns);
        }
        m.request_queue.push_back(p);
        m.emit(now_ns, EventKind::Offload { proc: p, task: t.0 });
        t
    };
    let _ = task;
    try_dispatch_queue(sim);

    let ppe = sim.model().procs[p].ppe;
    if sim.model().is_linux() {
        // The process spins on its context while the task runs. The only
        // way it loses the context is quantum expiry, checked here and at
        // task completion (granularity ~one cycle ≪ the 10 ms quantum).
        let _ = maybe_rotate_linux(sim, p, ppe);
    } else {
        // EDTLP: voluntary switch on off-load.
        let next = sim.model_mut().ppes[ppe].on_offload(ProcId(p));
        if next != Some(ProcId(p)) {
            let m = sim.model_mut();
            let held_ns = now_ns.saturating_sub(m.procs[p].ctx_acquired_ns);
            m.emit(
                now_ns,
                EventKind::CtxSwitch { proc: p, reason: SwitchReason::Offload, held_ns },
            );
        }
        dispatch(sim, next);
    }
}

/// Grant queued off-load requests while SPEs allow (FIFO).
fn try_dispatch_queue(sim: &mut S) {
    enum Grant {
        Spe(usize, usize),
        Fallback(usize),
    }
    loop {
        let grant = {
            let m = sim.model();
            match m.request_queue.front() {
                Some(&p) => {
                    if m.healthy_spes() == 0 {
                        // Every SPE is quarantined: terminal degradation
                        // reroutes the queue head straight to the scalar
                        // PPE copy (if the policy allows; otherwise the
                        // queue waits on a re-admission probe that, with
                        // no completions happening, never comes — the
                        // lethal configuration).
                        if m.cfg.faults.policy.ppe_fallback {
                            Some(Grant::Fallback(p))
                        } else {
                            None
                        }
                    } else {
                        let degree = m.grant_degree();
                        if m.idle_spes() >= degree {
                            Some(Grant::Spe(p, degree))
                        } else {
                            None
                        }
                    }
                }
                None => None,
            }
        };
        match grant {
            Some(Grant::Spe(p, degree)) => {
                sim.model_mut().request_queue.pop_front();
                grant_task(sim, p, degree);
            }
            Some(Grant::Fallback(p)) => {
                sim.model_mut().request_queue.pop_front();
                ppe_fallback_start(sim, p);
            }
            None => return,
        }
    }
}

/// What a grant turned into: a running task, or a sabotaged attempt that
/// wedges its team until the watchdog reclaims it.
enum Granted {
    Run { duration: SimDuration, dma_latency: Option<SimDuration> },
    Faulted { watchdog: SimDuration },
}

/// Start `p`'s task on a team of `degree` SPEs.
fn grant_task(sim: &mut S, p: usize, degree: usize) {
    let now = sim.now();
    let granted = {
        let m = sim.model_mut();
        let epoch = m.image_epoch;
        let now_ns = now.as_nanos();
        // Team members reload in parallel; each pays the full stall, the
        // task-level delay is one code_load_cost (added below).
        let stall_ns = CODE_LOAD_COST.as_nanos();
        let mut reload = false;
        m.procs[p].team.clear();
        for spe in 0..m.spes.len() {
            if m.spes[spe].is_busy() || m.quarantined[spe] {
                continue;
            }
            if m.spes[spe].start_task(now, epoch) {
                reload = true;
                m.emit(now_ns, EventKind::CodeReload { spe, stall_ns });
            }
            m.procs[p].team.push(spe);
            if m.procs[p].team.len() == degree {
                break;
            }
        }
        assert_eq!(m.procs[p].team.len(), degree, "grant without enough idle healthy SPEs");
        m.idle -= degree;
        let task = m.procs[p].current_task;
        let lead = m.procs[p].team[0];
        // Draw the kernel timing up front — in the simulator the drawn
        // duration *is* the task's true duration, so its running minimum
        // is the engine's own timing history, which the watchdog deadline
        // scales (no wall-clock constants).
        let (jitter, kind) = {
            let w = m.cfg.workload;
            (w.draw_jitter(&mut m.rng), w.draw_kind(&mut m.rng))
        };
        let mut dur = m.costs.duration(kind, degree, jitter);
        let drawn_ns = dur.as_nanos();
        m.min_task_ns = Some(m.min_task_ns.map_or(drawn_ns, |v| v.min(drawn_ns)));
        let attempt = m.procs[p].attempt;
        if let Some(fault) = m.cfg.faults.decide(task, attempt, lead) {
            // The attempt dies before the start protocol completes: no
            // mailbox traffic, no DMA, no TaskStart — just a wedged team
            // the watchdog must reclaim.
            m.fault_stats.injected += 1;
            m.consec_faults[lead] += 1;
            m.emit(
                now_ns,
                EventKind::FaultInjected { spe: lead, task, fault, attempt: u64::from(attempt) },
            );
            m.procs[p].phase = Phase::OnSpe;
            let hint = m.min_task_ns.unwrap_or(drawn_ns);
            let watchdog = SimDuration::from_nanos(m.cfg.faults.watchdog_ns(hint));
            Granted::Faulted { watchdog }
        } else {
        let buffer_bytes = m.costs.buffer_bytes;
        // PPE -> SPU start command through the lead SPE's inbound mailbox
        // (4-entry; our one-in-flight protocol can never fill it).
        let task_lo = m.next_task as u32;
        let posted = m.mailboxes[lead].signal_start(task_lo);
        debug_assert!(posted, "inbound mailbox overflow with one task in flight");
        let occ = m.mailboxes[lead].inbound.len();
        m.emit(
            now_ns,
            EventKind::MailboxWrite { spe: lead, mailbox: MailboxKind::Inbound, occupancy: occ },
        );
        let consumed = m.mailboxes[lead].take_start();
        debug_assert_eq!(consumed, Some(task_lo));
        let occ = m.mailboxes[lead].inbound.len();
        m.emit(
            now_ns,
            EventKind::MailboxRead { spe: lead, mailbox: MailboxKind::Inbound, occupancy: occ },
        );
        if m.cfg.record_events {
            // Local-store reservations for the task's in/out buffers, on
            // every team member (each SPE working the loop holds copies).
            for i in 0..degree {
                let spe = m.procs[p].team[i];
                m.ls_in_use[spe] += buffer_bytes;
                let in_use = m.ls_in_use[spe];
                m.emit(now_ns, EventKind::LsAlloc { spe, bytes: buffer_bytes, in_use });
            }
            // The input/output transfer as the MFC list the lead SPE issues.
            let local_addr = m.ls_in_use[lead] - buffer_bytes;
            let main_addr = 0x1000_0000 + (task as usize) * 0x8000;
            let list = DmaList::for_bytes(buffer_bytes, local_addr, main_addr)
                .expect("task buffers must form a legal DMA list");
            m.emit(
                now_ns,
                EventKind::Dma {
                    spe: lead,
                    element_bytes: list.elements().iter().map(|e| e.bytes).collect(),
                    local_addr,
                    main_addr,
                },
            );
            let team = m.procs[p].team.clone();
            m.emit(now_ns, EventKind::TaskStart { proc: p, task, degree, team });
            let loop_iters = m.cfg.workload.loop_iters;
            for (i, r) in partition(loop_iters, degree, 0.0).into_iter().enumerate() {
                m.emit(
                    now_ns,
                    EventKind::Chunk {
                        task,
                        loop_iters,
                        start: r.start,
                        len: r.len(),
                        worker: m.procs[p].team[i],
                    },
                );
            }
        }

        // Input/output DMA through the EIB. The optimized kernels aggregate
        // and double-buffer transfers (§5.1), so the latency overlaps the
        // computation (it is already inside the measured 96 µs task time);
        // the transfer still occupies the bus for contention accounting.
        let base = m.costs.dma_base;
        let dma_latency = match m.eib.begin_transfer(buffer_bytes, base) {
            Some(lat) => Some(lat),
            None => {
                // Bus saturated: the transfer would stall the task.
                m.dma_fallbacks += 1;
                dur += base * 2;
                None
            }
        };
        let latency_ns = dma_latency.unwrap_or(base * 2).as_nanos();
        m.emit(
            now_ns,
            EventKind::DmaComplete { spe: lead, bytes: buffer_bytes, latency_ns },
        );
        if m.cfg.granularity_verdicts {
            // Replay the §5.2 inequality for this grant: the drawn SPE
            // time, the reload stall actually paid, the modeled DMA
            // latency, and the dual-version PPE copy's slowdown.
            let t_code = if reload { stall_ns } else { 0 };
            let t_ppe = (drawn_ns as f64 * PPE_FALLBACK_SLOWDOWN) as u64;
            let offload = drawn_ns + t_code + 2 * latency_ns < t_ppe;
            m.emit(
                now_ns,
                EventKind::GranularityVerdict {
                    kernel: kind,
                    offload,
                    throttled: !offload,
                    reprobe: false,
                },
            );
        }
        if reload {
            dur += CODE_LOAD_COST;
        }
        m.procs[p].phase = Phase::OnSpe;
        Granted::Run { duration: dur, dma_latency }
        }
    };
    match granted {
        Granted::Run { duration, dma_latency } => {
            // Release the bus slot when the transfer lands (keeps EIB
            // occupancy honest for concurrent transfers).
            if let Some(lat) = dma_latency {
                sim.schedule_in(lat, |sim| sim.model_mut().eib.end_transfer());
            }
            sim.schedule_in_with(duration, task_complete, p);
        }
        Granted::Faulted { watchdog } => {
            sim.schedule_in_with(watchdog, watchdog_fire, p);
        }
    }
}

/// The watchdog deadline for `p`'s faulted attempt expired: reclaim the
/// wedged team, quarantine the lead if it crossed `k` consecutive faults,
/// then retry (with declared backoff), fall back to the PPE, or — under a
/// lethal policy — abandon the task.
fn watchdog_fire(sim: &mut S, p: usize) {
    let now = sim.now();
    let now_ns = now.as_nanos();
    let (task, attempt) = {
        let m = sim.model_mut();
        for &s in &m.procs[p].team {
            m.spes[s].finish_task(now);
        }
        m.idle += m.procs[p].team.len();
        let lead = m.procs[p].team[0];
        let pol = m.cfg.faults.policy;
        if !m.quarantined[lead] && m.consec_faults[lead] >= pol.quarantine_k {
            m.quarantined[lead] = true;
            m.idle -= 1;
            m.healthy -= 1;
            m.quarantine_marks[lead] = m.tasks_completed;
            m.fault_stats.quarantines += 1;
            let faults = u64::from(m.consec_faults[lead]);
            m.emit(now_ns, EventKind::SpeQuarantined { spe: lead, faults });
            sync_mgps_healthy(m);
        }
        (m.procs[p].current_task, m.procs[p].attempt)
    };
    let pol = sim.model().cfg.faults.policy;
    if attempt < pol.max_retries {
        let backoff_ns = sim.model().cfg.faults.backoff_ns(task, attempt + 1);
        sim.schedule_in_with(SimDuration::from_nanos(backoff_ns), retry_offload, p);
    } else if pol.ppe_fallback {
        ppe_fallback_start(sim, p);
    } else {
        // Lethal configuration: the task is lost and its bootstrap never
        // finishes — exactly the failure the checker must flag.
        let m = sim.model_mut();
        m.fault_stats.lost += 1;
        m.procs[p].phase = Phase::WaitingSpe;
    }
    // The reclaimed team may unblock queued requests.
    try_dispatch_queue(sim);
}

/// `p` re-off-loads its faulted task after the declared backoff.
fn retry_offload(sim: &mut S, p: usize) {
    let now_ns = sim.now().as_nanos();
    {
        let m = sim.model_mut();
        m.procs[p].attempt += 1;
        m.fault_stats.retries += 1;
        m.procs[p].phase = Phase::WaitingSpe;
        let task = m.procs[p].current_task;
        let attempt = m.procs[p].attempt;
        // The backoff just waited, recomputed from the same coordinates.
        let backoff_ns = m.cfg.faults.backoff_ns(task, attempt);
        m.request_queue.push_back(p);
        m.emit(now_ns, EventKind::OffloadRetry { task, attempt: u64::from(attempt), backoff_ns });
    }
    try_dispatch_queue(sim);
}

/// Run `p`'s task on the PPE's scalar kernel copy (the paper's dual-version
/// functions): the terminal degradation — the task still completes.
fn ppe_fallback_start(sim: &mut S, p: usize) {
    let dur = {
        let m = sim.model_mut();
        m.procs[p].phase = Phase::OnSpe;
        let (jitter, kind) = {
            let w = m.cfg.workload;
            (w.draw_jitter(&mut m.rng), w.draw_kind(&mut m.rng))
        };
        m.costs.duration(kind, 1, jitter).mul_f64(PPE_FALLBACK_SLOWDOWN)
    };
    sim.schedule_in_with(dur, ppe_fallback_complete, p);
}

/// `p`'s task finished on the PPE fallback path.
fn ppe_fallback_complete(sim: &mut S, p: usize) {
    let now_ns = sim.now().as_nanos();
    {
        let m = sim.model_mut();
        let task = m.procs[p].current_task;
        let attempts = u64::from(m.procs[p].attempt) + 1;
        m.emit(now_ns, EventKind::PpeFallback { proc: p, task, attempts });
        m.fault_stats.ppe_fallbacks += 1;
        m.tasks_completed += 1;
        m.procs[p].remaining -= 1;
        mgps_departure(m, p, now_ns);
        maybe_readmit(m, now_ns);
    }
    try_dispatch_queue(sim);
    reacquire_ppe(sim, p);
}

/// Re-admission probes: a quarantined SPE re-enters service
/// `readmit_period` completions after it was benched, with its
/// consecutive-fault counter left one below the threshold so a single
/// further fault re-quarantines it immediately.
fn maybe_readmit(m: &mut CellMachine, now_ns: u64) {
    if m.healthy_spes() == m.spes.len() {
        return;
    }
    let period = u64::from(m.cfg.faults.policy.readmit_period.max(1));
    let mut changed = false;
    for spe in 0..m.quarantined.len() {
        if m.quarantined[spe]
            && m.tasks_completed.saturating_sub(m.quarantine_marks[spe]) >= period
        {
            // A quarantined SPE is idle: it was benched as its team was
            // reclaimed, and no grant picks it.
            m.quarantined[spe] = false;
            m.idle += 1;
            m.healthy += 1;
            m.consec_faults[spe] = m.cfg.faults.policy.quarantine_k.saturating_sub(1);
            m.fault_stats.readmissions += 1;
            m.emit(now_ns, EventKind::SpeReadmitted { spe });
            changed = true;
        }
    }
    if changed {
        sync_mgps_healthy(m);
    }
}

/// Push the healthy-SPE count into the MGPS policy so subsequent LLP
/// degrees are `⌊healthy / T⌋`.
fn sync_mgps_healthy(m: &mut CellMachine) {
    let healthy = m.healthy_spes();
    if let Some(mgps) = m.mgps.as_mut() {
        mgps.set_healthy(healthy);
    }
}

/// `p`'s task finished on its team.
fn task_complete(sim: &mut S, p: usize) {
    let now = sim.now();
    let now_ns = now.as_nanos();
    {
        let m = sim.model_mut();
        for &s in &m.procs[p].team {
            m.spes[s].finish_task(now);
        }
        m.idle += m.procs[p].team.len();
        let task = m.procs[p].current_task;
        if m.cfg.record_events {
            let buffer_bytes = m.costs.buffer_bytes;
            for i in 0..m.procs[p].team.len() {
                let spe = m.procs[p].team[i];
                m.ls_in_use[spe] -= buffer_bytes;
                let in_use = m.ls_in_use[spe];
                m.emit(now_ns, EventKind::LsFree { spe, bytes: buffer_bytes, in_use });
            }
        }
        // SPU -> PPE completion interrupt; the PPE-side scheduler collects
        // it immediately (it is what wakes the EDTLP scheduler).
        let lead = m.procs[p].team[0];
        let posted = m.mailboxes[lead].signal_complete(m.tasks_completed as u32);
        debug_assert!(posted, "outbound-interrupt mailbox still occupied");
        let occ = m.mailboxes[lead].outbound_interrupt.len();
        m.emit(
            now_ns,
            EventKind::MailboxWrite {
                spe: lead,
                mailbox: MailboxKind::OutboundInterrupt,
                occupancy: occ,
            },
        );
        let collected = m.mailboxes[lead].collect_complete();
        debug_assert!(collected.is_some());
        let occ = m.mailboxes[lead].outbound_interrupt.len();
        m.emit(
            now_ns,
            EventKind::MailboxRead {
                spe: lead,
                mailbox: MailboxKind::OutboundInterrupt,
                occupancy: occ,
            },
        );
        if m.cfg.record_events {
            let team = m.procs[p].team.clone();
            m.emit(now_ns, EventKind::TaskEnd { proc: p, task, team });
        }
        m.tasks_completed += 1;
        m.procs[p].remaining -= 1;
        // A clean completion clears the team's consecutive-fault counters
        // and advances the re-admission clock.
        for &s in &m.procs[p].team {
            m.consec_faults[s] = 0;
        }
        mgps_departure(m, p, now_ns);
        maybe_readmit(m, now_ns);
    }
    // Freed SPEs may unblock queued requests.
    try_dispatch_queue(sim);
    reacquire_ppe(sim, p);
}

/// MGPS adaptation on a task departure (shared by the SPE-completion and
/// PPE-fallback paths).
fn mgps_departure(m: &mut CellMachine, p: usize, now_ns: u64) {
    if m.mgps.is_none() {
        return;
    }
    let started = m.procs[p].task_started_ns;
    let waiting = (0..m.live.len()).map(|cell| m.live_procs(cell)).sum::<usize>().max(1);
    let tid = TaskId(m.next_task); // id only used for bookkeeping
    let decision = m.mgps.as_mut().and_then(|mgps| {
        mgps.on_departure(tid, started, now_ns, waiting)
            .map(|d| (d, mgps.config().window, mgps.window_fill()))
    });
    if let Some((directive, window, window_fill)) = decision {
        let new_degree = match directive {
            Directive::ActivateLlp(d) => d.0,
            Directive::DeactivateLlp => 1,
        };
        let n_spes = m.spes.len();
        m.emit(
            now_ns,
            EventKind::DegreeDecision {
                degree: new_degree,
                // Replayable from the off-load history (`mgps_obs::decisions`).
                u: 0,
                waiting,
                n_spes,
                window,
                window_fill,
            },
        );
        if new_degree != m.current_degree {
            m.current_degree = new_degree;
            // Switching between plain and loop-parallel kernel
            // versions replaces SPE code images (§5.4).
            m.image_epoch += 1;
            m.llp_switches += 1;
        }
    }
}

/// Give `p` its PPE context back after a completed task (SPE completion or
/// PPE fallback alike).
fn reacquire_ppe(sim: &mut S, p: usize) {
    let ppe = sim.model().procs[p].ppe;
    if sim.model().is_linux() {
        if sim.model().ppes[ppe].is_running(ProcId(p)) {
            if !maybe_rotate_linux(sim, p, ppe) {
                continue_proc(sim, p);
            } else {
                // Rotated out with a completed task: resume on dispatch.
                sim.model_mut().procs[p].phase = Phase::Ready;
                sim.model_mut().procs[p].pending_resume = true;
            }
        } else {
            sim.model_mut().procs[p].phase = Phase::Ready;
            sim.model_mut().procs[p].pending_resume = true;
        }
    } else {
        let dispatched = sim.model_mut().ppes[ppe].admit(ProcId(p));
        if dispatched.is_some() {
            let now_ns2 = sim.now().as_nanos();
            sim.model_mut().procs[p].ctx_acquired_ns = now_ns2;
            sim.schedule_in_with(CTX_SWITCH, continue_proc, p);
        } else {
            sim.model_mut().procs[p].phase = Phase::Ready;
        }
    }
}

/// Check the Linux quantum for `p`; rotate if expired and someone waits.
/// Returns whether `p` lost its context.
fn maybe_rotate_linux(sim: &mut S, p: usize, ppe: usize) -> bool {
    let now_ns = sim.now().as_nanos();
    let expired = {
        let m = sim.model();
        now_ns.saturating_sub(m.procs[p].ctx_acquired_ns) >= m.quantum_ns
            && m.ppes[ppe].ready_len() > 0
    };
    if !expired {
        return false;
    }
    let next = sim.model_mut().ppes[ppe].on_quantum_expiry(ProcId(p));
    match next {
        Some(q) if q == ProcId(p) => {
            // Sole runnable process: keeps the context.
            sim.model_mut().procs[p].ctx_acquired_ns = now_ns;
            false
        }
        next => {
            let m = sim.model_mut();
            let held_ns = now_ns.saturating_sub(m.procs[p].ctx_acquired_ns);
            m.emit(
                now_ns,
                EventKind::CtxSwitch { proc: p, reason: SwitchReason::Quantum, held_ns },
            );
            dispatch(sim, next);
            true
        }
    }
}

/// Schedule the continuation of a process that just received a context.
fn dispatch(sim: &mut S, next: Option<ProcId>) {
    let Some(ProcId(q)) = next else { return };
    sim.schedule_in_with(CTX_SWITCH, proc_dispatched, q);
}

/// `q` acquired a PPE context after a switch.
fn proc_dispatched(sim: &mut S, q: usize) {
    let now_ns = sim.now().as_nanos();
    {
        let m = sim.model_mut();
        m.procs[q].ctx_acquired_ns = now_ns;
        m.procs[q].polluted = true;
    }
    let (phase, pending) = {
        let m = sim.model();
        (m.procs[q].phase, m.procs[q].pending_resume)
    };
    match phase {
        Phase::Ready => {
            sim.model_mut().procs[q].pending_resume = false;
            continue_proc(sim, q);
        }
        Phase::WaitingSpe | Phase::OnSpe => {
            // A Linux spinner rotated back in while its task is still in
            // flight: it just holds the context spinning.
            debug_assert!(sim.model().is_linux());
            let _ = pending;
        }
        Phase::PpeWork | Phase::Done => {
            unreachable!("process dispatched in impossible phase {phase:?}")
        }
    }
}

/// `p` finished its bootstrap.
fn finish_proc(sim: &mut S, p: usize) {
    let ppe = sim.model().procs[p].ppe;
    {
        let now = sim.now();
        let m = sim.model_mut();
        m.procs[p].phase = Phase::Done;
        m.procs[p].finished = Some(now);
        m.active_procs -= 1;
        m.live[m.procs[p].cell] -= 1;
    }
    let next = sim.model_mut().ppes[ppe].remove(ProcId(p));
    dispatch(sim, next);
    // Wave admission (static hybrid): a finished bootstrap frees a slot.
    admit_next_proc(sim);
    if sim.model().active_procs == 0 {
        let now = sim.now();
        sim.model_mut().finish = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Heavily scaled-down workload for fast unit tests.
    fn cfg(scheduler: SchedulerKind, n: usize) -> SimConfig {
        SimConfig::cell_42sc(scheduler, n, 2_000) // ~133 tasks per bootstrap
    }

    #[test]
    fn single_worker_edtlp_matches_analytic_estimate() {
        let c = cfg(SchedulerKind::Edtlp, 1);
        let r = run(c);
        assert!(
            (r.paper_scale_secs - 28.46).abs() < 1.5,
            "1-worker EDTLP extrapolates to {}s (paper 28.46s)",
            r.paper_scale_secs
        );
        assert_eq!(r.tasks_completed, c.workload.tasks_per_bootstrap as u64);
        assert_eq!(r.final_degree, 1);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(cfg(SchedulerKind::Mgps, 3));
        let b = run(cfg(SchedulerKind::Mgps, 3));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.context_switches, b.context_switches);
        assert_eq!(a.tasks_completed, b.tasks_completed);
    }

    #[test]
    fn edtlp_scales_gracefully_to_eight_workers() {
        let t1 = run(cfg(SchedulerKind::Edtlp, 1)).paper_scale_secs;
        let t8 = run(cfg(SchedulerKind::Edtlp, 8)).paper_scale_secs;
        // Table 1: 28.46s → 43.32s, i.e. within ~1.6x of constant.
        assert!(t8 < t1 * 1.8, "EDTLP at 8 workers {t8}s vs 1 worker {t1}s");
        assert!(t8 > t1, "more workers cannot be free");
    }

    #[test]
    fn linux_baseline_steps_with_half_the_workers() {
        let t1 = run(cfg(SchedulerKind::LinuxLike, 1)).paper_scale_secs;
        let t3 = run(cfg(SchedulerKind::LinuxLike, 3)).paper_scale_secs;
        let t8 = run(cfg(SchedulerKind::LinuxLike, 8)).paper_scale_secs;
        // Table 1: ceil(W/2) waves of ~28.5s.
        assert!((t3 / t1 - 2.0).abs() < 0.35, "3 workers should take ~2 waves, ratio {}", t3 / t1);
        assert!((t8 / t1 - 4.0).abs() < 0.7, "8 workers should take ~4 waves, ratio {}", t8 / t1);
    }

    #[test]
    fn edtlp_beats_linux_at_high_worker_counts() {
        let edtlp = run(cfg(SchedulerKind::Edtlp, 8)).paper_scale_secs;
        let linux = run(cfg(SchedulerKind::LinuxLike, 8)).paper_scale_secs;
        let ratio = linux / edtlp;
        assert!(
            ratio > 2.0,
            "paper reports ~2.6x at 8 workers; simulated ratio {ratio}"
        );
    }

    #[test]
    fn static_hybrid_uses_teams_and_respects_concurrency() {
        let r = run(cfg(SchedulerKind::StaticHybrid { spes_per_loop: 4 }, 1));
        assert_eq!(r.final_degree, 4);
        // One bootstrap with 4-way LLP must beat plain EDTLP (Table 2 / Fig 7).
        let edtlp = run(cfg(SchedulerKind::Edtlp, 1));
        assert!(
            r.paper_scale_secs < edtlp.paper_scale_secs,
            "hybrid {} vs EDTLP {}",
            r.paper_scale_secs,
            edtlp.paper_scale_secs
        );
    }

    #[test]
    fn mgps_activates_llp_for_low_task_parallelism() {
        let r = run(cfg(SchedulerKind::Mgps, 2));
        let (evals, acts, _) = r.mgps_counters.expect("MGPS counters present");
        assert!(evals > 0);
        assert!(acts > 0, "2 bootstraps leave SPEs idle; MGPS must activate LLP");
        assert!(r.final_degree > 1);
        assert!(r.llp_switches > 0);
        assert!(r.code_reloads > 0, "LLP activation replaces code images");
    }

    #[test]
    fn mgps_stays_edtlp_for_high_task_parallelism() {
        let r = run(cfg(SchedulerKind::Mgps, 8));
        // Occasional tail activations are fine; steady state must be EDTLP.
        let (evals, acts, _) = r.mgps_counters.unwrap();
        assert!(
            acts * 4 <= evals,
            "8 bootstraps should rarely trigger LLP: {acts} activations in {evals} windows"
        );
    }

    #[test]
    fn spe_utilization_reflects_worker_count() {
        let low = run(cfg(SchedulerKind::Edtlp, 1));
        let high = run(cfg(SchedulerKind::Edtlp, 8));
        assert!(high.mean_spe_utilization > low.mean_spe_utilization * 4.0);
        assert!(low.spe_utilization.iter().filter(|&&u| u > 0.01).count() <= 2);
    }

    #[test]
    fn dual_cell_blade_halves_makespan_at_scale() {
        // 16 bootstraps need two waves on 8 SPEs but only one on 16
        // (Figure 9b: two Cells run large workloads at ~half the time).
        let mut one = cfg(SchedulerKind::Edtlp, 16);
        let mut two = cfg(SchedulerKind::Edtlp, 16);
        one.params = CellParams::blade(1);
        two.params = CellParams::blade(2);
        let t1 = run(one).paper_scale_secs;
        let t2 = run(two).paper_scale_secs;
        assert!(
            t2 < t1 * 0.65,
            "two Cells should run 16 bootstraps much faster: {t2} vs {t1}"
        );
    }

    #[test]
    fn linux_proc_finish_times_reflect_context_queues() {
        // With the (compression-adjusted) quantum, same-context processes
        // round-robin fairly, so they all finish near k·T where k is the
        // per-context queue depth — the makespan equivalent of the paper's
        // waves. EDTLP runs everyone concurrently near 1·T.
        let t1 = run(cfg(SchedulerKind::LinuxLike, 1)).proc_finish[0].as_secs_f64();
        let r = run(cfg(SchedulerKind::LinuxLike, 6));
        for (i, d) in r.proc_finish.iter().enumerate() {
            let ratio = d.as_secs_f64() / t1;
            assert!(
                (2.5..=3.3).contains(&ratio),
                "proc {i}: finish at {ratio:.2}x single-worker time (3 per context queue)"
            );
        }
        let r2 = run(cfg(SchedulerKind::Edtlp, 6));
        for (i, d) in r2.proc_finish.iter().enumerate() {
            let ratio = d.as_secs_f64() / t1;
            assert!(
                ratio < 1.6,
                "EDTLP proc {i}: finish at {ratio:.2}x single-worker time"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one bootstrap")]
    fn zero_bootstraps_rejected() {
        let _ = run(cfg(SchedulerKind::Edtlp, 0));
    }

    #[test]
    #[should_panic(expected = "team size must fit")]
    fn oversized_hybrid_team_rejected() {
        let _ = run(cfg(SchedulerKind::StaticHybrid { spes_per_loop: 9 }, 1));
    }

    #[test]
    fn linux_single_worker_keeps_its_context() {
        // One process, no competitors: quantum expiries resume the same
        // process and no context switches are booked.
        let r = run(cfg(SchedulerKind::LinuxLike, 1));
        assert_eq!(r.context_switches, 0);
        assert!((r.paper_scale_secs - 28.5).abs() < 1.0);
    }

    #[test]
    fn mgps_config_mismatch_is_rejected() {
        let mut c = cfg(SchedulerKind::Mgps, 2);
        c.mgps_config = Some(mgps_runtime::policy::MgpsConfig::for_spes(16));
        let result = std::panic::catch_unwind(|| run(c));
        assert!(result.is_err(), "SPE-count mismatch must panic");
    }

    #[test]
    fn non_tiling_hybrid_team_works_with_wave_admission() {
        // 3 SPEs per loop on an 8-SPE machine: floor(8/3) = 2 concurrent.
        let r = run(cfg(SchedulerKind::StaticHybrid { spes_per_loop: 3 }, 4));
        assert_eq!(r.final_degree, 3);
        assert!(r.tasks_completed > 0);
    }

    #[test]
    fn three_cell_blade_is_accepted() {
        let mut c = cfg(SchedulerKind::Edtlp, 6);
        c.params = CellParams::blade(3);
        let r = run(c);
        assert_eq!(r.spe_utilization.len(), 24);
    }

    #[test]
    fn custom_profile_scales_linearly() {
        let mut half = cfg(SchedulerKind::Edtlp, 1);
        half.profile = crate::workload::KernelProfile::Custom(2.0);
        let slow = run(half).paper_scale_secs;
        let base = run(cfg(SchedulerKind::Edtlp, 1)).paper_scale_secs;
        // Doubling SPE task time doubles ~90% of the bootstrap.
        let ratio = slow / base;
        assert!((1.75..=1.95).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mailboxes_carry_one_start_and_one_completion_per_task() {
        let c = cfg(SchedulerKind::Edtlp, 3);
        let r = run(c);
        assert_eq!(r.mailbox_messages, 2 * r.tasks_completed);
    }

    #[test]
    fn faulted_runs_recover_every_task_and_stay_deterministic() {
        let mut c = cfg(SchedulerKind::Edtlp, 3);
        c.faults = FaultPlan::parse("seed=5,stall=0.05,dma=0.02").unwrap();
        c.record_events = true;
        let a = run(c);
        let b = run(c);
        assert!(a.faults.injected > 0, "a 7% combined rate over ~400 tasks must fire");
        assert!(a.faults.retries > 0);
        assert_eq!(a.faults.lost, 0);
        assert!(!a.unrecovered);
        assert_eq!(a.tasks_completed, 3 * c.workload.tasks_per_bootstrap as u64);
        assert_eq!(a.makespan, b.makespan);
        // Byte-identical replay: same seed + same spec → same log.
        assert_eq!(format!("{:?}", a.run_log), format!("{:?}", b.run_log));
        let log = a.run_log.unwrap();
        assert_eq!(log.fault_policy.as_deref(), Some(c.faults.to_spec().as_str()));
    }

    #[test]
    fn unarmed_plan_leaves_runs_identical_to_default() {
        let mut c = cfg(SchedulerKind::Mgps, 2);
        c.record_events = true;
        let base = run(c);
        // Tweaking recovery knobs without arming any fault source must not
        // perturb the schedule (the <1%-overhead claim starts here).
        c.faults.policy.max_retries = 9;
        c.faults.policy.watchdog_factor = 2;
        let tweaked = run(c);
        assert_eq!(base.makespan, tweaked.makespan);
        assert_eq!(format!("{:?}", base.run_log), format!("{:?}", tweaked.run_log));
        assert_eq!(base.faults, FaultReport::default());
        assert!(base.run_log.unwrap().fault_policy.is_none());
    }

    #[test]
    fn broken_spes_get_quarantined_and_mgps_throttles_degree() {
        let mut c = cfg(SchedulerKind::Mgps, 1);
        c.faults = FaultPlan::parse("seed=1,broken=4,readmit=1000000").unwrap();
        c.record_events = true;
        let r = run(c);
        assert!(!r.unrecovered);
        assert_eq!(r.faults.lost, 0);
        assert_eq!(r.faults.quarantines, 4, "all four broken SPEs must be benched");
        assert_eq!(r.faults.readmissions, 0, "re-admission pushed past the run");
        // Decision log: once the broken half is quarantined, a single
        // bootstrap (T = 1) gets floor(healthy/1) = 4 SPEs, not 8.
        let log = r.run_log.unwrap();
        let mut benched = 0u32;
        let mut max_after = 0usize;
        let mut decisions_after = 0u32;
        for e in &log.events {
            match &e.kind {
                EventKind::SpeQuarantined { .. } => benched += 1,
                EventKind::DegreeDecision { degree, .. } if benched >= 4 => {
                    decisions_after += 1;
                    max_after = max_after.max(*degree);
                }
                _ => {}
            }
        }
        assert!(decisions_after > 0, "MGPS must keep deciding after quarantine");
        assert_eq!(max_after, 4, "degree must drop to the healthy-SPE count");
    }

    #[test]
    fn all_spes_broken_still_completes_via_ppe_fallback() {
        let mut c = cfg(SchedulerKind::Edtlp, 1);
        c.faults = FaultPlan::parse("seed=2,broken=8,k=1,retries=0,readmit=1000000").unwrap();
        let r = run(c);
        assert!(!r.unrecovered, "the task always completes somewhere");
        assert_eq!(r.tasks_completed, c.workload.tasks_per_bootstrap as u64);
        assert_eq!(r.faults.quarantines, 8);
        assert_eq!(r.faults.lost, 0);
        assert_eq!(
            r.faults.ppe_fallbacks, r.tasks_completed,
            "with every SPE benched, everything runs on the PPE copy"
        );
    }

    #[test]
    fn quarantined_spes_are_readmitted_and_serve_again() {
        let mut c = cfg(SchedulerKind::Edtlp, 2);
        c.faults =
            FaultPlan::parse("seed=4,pin=stall@0,pin=crash@1,k=1,retries=0,readmit=4").unwrap();
        c.record_events = true;
        let r = run(c);
        assert!(!r.unrecovered);
        assert_eq!(r.faults.injected, 2);
        assert_eq!(r.faults.quarantines, 2);
        assert!(r.faults.readmissions >= 2, "short readmit period must re-admit");
        let log = r.run_log.unwrap();
        let readmits =
            log.events.iter().filter(|e| matches!(e.kind, EventKind::SpeReadmitted { .. })).count();
        assert_eq!(readmits as u64, r.faults.readmissions);
    }

    #[test]
    fn lethal_plan_loses_the_task_and_reports_unrecovered() {
        let mut c = cfg(SchedulerKind::Edtlp, 2);
        c.faults = FaultPlan::parse("seed=3,pin=crash@0,retries=0,fallback=off").unwrap();
        let r = run(c);
        assert!(r.unrecovered);
        assert_eq!(r.faults.lost, 1);
        assert_eq!(
            r.tasks_completed,
            c.workload.tasks_per_bootstrap as u64,
            "the healthy bootstrap still finishes; the faulted one is stranded"
        );
    }

    #[test]
    fn fixed_degree_hybrid_survives_quarantine_via_degree_clamp() {
        // llp4 on a machine where 6 of 8 SPEs go bad: grant degree must
        // clamp to the healthy count instead of deadlocking.
        let mut c = cfg(SchedulerKind::StaticHybrid { spes_per_loop: 4 }, 2);
        c.faults = FaultPlan::parse("seed=6,broken=6,k=1,readmit=1000000").unwrap();
        let r = run(c);
        assert!(!r.unrecovered);
        assert_eq!(r.faults.lost, 0);
        assert_eq!(r.faults.quarantines, 6);
    }

    #[test]
    fn eib_sees_traffic() {
        let c = cfg(SchedulerKind::Edtlp, 4);
        let r = run(c);
        let expected = (c.workload.input_bytes + c.workload.output_bytes) as u64
            * c.workload.tasks_per_bootstrap as u64
            * 4;
        assert_eq!(r.eib_bytes, expected);
        assert!(r.eib_peak_outstanding >= 1);
    }
}
